"""Violations of every concurrency rule (linted as data, never imported)."""

import multiprocessing as mp
import random
import sqlite3
from concurrent.futures import ProcessPoolExecutor

from repro.eval.workers import WarmWorkerPool

RNG = random.Random(1234)  # FINDING: module-scope RNG used by the worker
DB = sqlite3.connect("cells.db")  # FINDING: module-scope connection crosses fork
LEDGER = sqlite3.connect("ledger.db")  # FINDING: read by a pool task= function


def worker(spec):
    DB.execute("SELECT 1")
    return RNG.random(), spec


def run_all(specs):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(worker, specs))


def record(cell):
    LEDGER.execute("SELECT 1")
    return cell


def run_on_pool(sink):
    return WarmWorkerPool(2, task=record, on_result=sink)


def child(conn, url):
    return conn, url


def spawn(url):
    conn = sqlite3.connect(url)
    proc = mp.Process(target=child, args=(conn, url))  # FINDING: conn passed across fork
    proc.start()
    return proc

