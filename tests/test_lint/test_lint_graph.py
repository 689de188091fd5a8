"""Unit tests for the shared whole-program index (repro.lint.graph).

Small synthetic projects written to tmp_path: import aliasing, a
re-export chain through a package ``__init__``, and a call-graph cycle
(reachability must terminate and include both directions).
"""

from repro.lint.framework import Project
from repro.lint.graph import MODULE_BODY, FunctionRef, module_dotted


def make_project(tmp_path, files):
    paths = []
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        paths.append(p)
    return Project.load(paths, root=tmp_path)


def test_module_dotted():
    assert module_dotted("src/repro/store/store.py") == (
        "repro.store.store", False,
    )
    assert module_dotted("src/repro/store/__init__.py") == (
        "repro.store", True,
    )
    assert module_dotted("mod.py") == ("mod", False)


def test_import_alias_resolves_cross_module(tmp_path):
    graph = make_project(tmp_path, {
        "helpers.py": "def compute():\n    return 1\n",
        "main.py": (
            "import helpers as h\n"
            "def run():\n"
            "    return h.compute()\n"
        ),
    }).graph()
    callees = graph.callees_of(FunctionRef("main.py", "run"))
    assert FunctionRef("helpers.py", "compute") in callees


def test_from_import_rename_and_reexport_chain(tmp_path):
    graph = make_project(tmp_path, {
        "pkg/__init__.py": "from .inner import work\n",
        "pkg/inner.py": "def work():\n    return 2\n",
        "main.py": (
            "from pkg import work as w\n"
            "def run():\n"
            "    return w()\n"
        ),
    }).graph()
    callees = graph.callees_of(FunctionRef("main.py", "run"))
    assert FunctionRef("pkg/inner.py", "work") in callees


def test_call_graph_cycle_terminates(tmp_path):
    graph = make_project(tmp_path, {
        "a.py": (
            "import b\n"
            "def f(n):\n"
            "    return b.g(n - 1)\n"
        ),
        "b.py": (
            "import a\n"
            "def g(n):\n"
            "    return a.f(n) if n else 0\n"
        ),
    }).graph()
    f, g = FunctionRef("a.py", "f"), FunctionRef("b.py", "g")
    forward = graph.reachable({f})
    assert {f, g} <= forward


def test_module_body_calls_indexed(tmp_path):
    graph = make_project(tmp_path, {
        "boot.py": (
            "def setup():\n"
            "    return 1\n"
            "STATE = setup()\n"
        ),
    }).graph()
    callees = graph.callees_of(FunctionRef("boot.py", MODULE_BODY))
    assert FunctionRef("boot.py", "setup") in callees


def test_method_resolution_via_self(tmp_path):
    graph = make_project(tmp_path, {
        "svc.py": (
            "class Service:\n"
            "    def outer(self):\n"
            "        return self.inner()\n"
            "    def inner(self):\n"
            "        return 3\n"
        ),
    }).graph()
    callees = graph.callees_of(FunctionRef("svc.py", "Service.outer"))
    assert FunctionRef("svc.py", "Service.inner") in callees
