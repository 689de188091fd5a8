"""The same shapes done right: per-worker resources."""

import multiprocessing as mp
import random
import sqlite3
from concurrent.futures import ProcessPoolExecutor

from repro.eval.workers import WarmWorkerPool


def worker(spec):
    # each worker opens its own connection and seeds its own RNG
    conn = sqlite3.connect("cells.db")
    rng = random.Random(spec)
    try:
        return rng.random(), conn.execute("SELECT 1").fetchone()
    finally:
        conn.close()


def run_all(specs):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(worker, specs))


def record(cell):
    # a pool task opens what it needs inside the worker, too
    conn = sqlite3.connect("ledger.db")
    try:
        return conn.execute("SELECT ?", (cell,)).fetchone()
    finally:
        conn.close()


def run_on_pool(sink):
    return WarmWorkerPool(2, task=record, on_result=sink)


def spawn(url):
    # only picklable plain data crosses the fork
    proc = mp.Process(target=worker, args=(url,))
    proc.start()
    return proc

