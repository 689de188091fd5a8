"""The ``concurrency`` checker against its fixture pair.

``bad_snippets.py`` exercises all three rules: a module-scope RNG and
sqlite connection read by a worker function reached through
``pool.map``, a module-scope connection read by a ``WarmWorkerPool``
``task=`` function, a connection created in the parent and passed through
``Process(args=...)``, and a ``print`` reachable from a registered
SIGALRM handler.  ``good_snippets.py`` does the same jobs with
per-worker resources and a flag-only handler.
"""


def test_bad_fixture_flags_every_marked_line(lint_fixture, marked_lines):
    findings = lint_fixture("concurrency/bad_snippets.py", only=["concurrency"])
    assert [f.line for f in findings] == marked_lines(
        "concurrency/bad_snippets.py"
    )
    assert all(f.checker == "concurrency" for f in findings)


def test_each_rule_fires(lint_fixture):
    findings = lint_fixture("concurrency/bad_snippets.py", only=["concurrency"])
    blob = "\n".join(f.message for f in findings)
    assert "module-scope random.Random instance 'RNG'" in blob
    assert "module-scope sqlite connection 'DB'" in blob
    assert "worker-side function worker()" in blob
    assert "module-scope sqlite connection 'LEDGER'" in blob
    assert "worker-side function record()" in blob
    assert "sqlite connection 'conn'" in blob
    assert "passed across a fork/submit point" in blob
    assert "call to print()" in blob
    assert "signal handler" in blob


def test_good_fixture_is_clean(lint_fixture):
    assert lint_fixture(
        "concurrency/good_snippets.py", only=["concurrency"]
    ) == []


def test_pool_tasks_are_worker_side_in_the_real_tree(real_tree):
    """The pool's worker loop calls ``task(item)``; the ``task=`` argument
    of each ``WarmWorkerPool(...)`` must still put the code it runs on the
    worker side, or a hoisted connection there would go unflagged."""

    from repro.lint.concurrency import ConcurrencyChecker

    project, _ = real_tree
    graph = project.graph()
    side = {(ref.rel, ref.qual) for ref in ConcurrencyChecker().worker_side(graph)}
    assert ("src/repro/eval/executors.py", "_run_spec") in side
    assert ("src/repro/eval/runners.py", "run_cell") in side
    assert ("src/repro/serve/pool.py", "serve_task") in side
    assert ("src/repro/serve/api.py", "execute_request") in side
