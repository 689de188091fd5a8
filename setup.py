"""Setuptools shim + the optional compiled SABRE kernel.

The project metadata lives in ``pyproject.toml``; this file exists for
legacy ``setup.py`` invocations *and* to declare the optional C extension
behind ``SabreMapper(kernel="c")``::

    python setup.py build_ext --inplace

drops ``repro/baselines/_sabre_kernel.*.so`` next to its wrapper under
``src/``, which is all the runtime selection needs (no install required --
the tier-1 test command runs with ``PYTHONPATH=src``).

The extension is *optional*: pure-Python environments (no C toolchain) keep
working -- ``SabreMapper(kernel="auto")`` falls back to the textbook Python
reference loop, which is bit-identical but slower.  A failed compile
therefore only warns, unless ``REPRO_REQUIRE_KERNEL=1`` is set (CI's
compiled leg sets it, so a toolchain regression fails loudly there instead
of silently testing the fallback twice).

Environments without the ``wheel`` package (or setuptools >= 70) cannot do
editable installs at all -- there, run with ``PYTHONPATH=src`` instead, which
is how the tier-1 test command works out of the box.

Build flags are environment-tunable so CI legs and local debugging never
require editing this file:

``REPRO_KERNEL_CFLAGS``
    Extra compile flags, shell-quoted (e.g. ``"-O1 -g"``); appended after
    the defaults so they win.
``REPRO_KERNEL_SANITIZE=1``
    The hardened configuration CI's ``asan`` job uses:
    ``-fsanitize=address,undefined`` (compile *and* link),
    ``-fno-sanitize-recover=all`` so a UBSAN hit aborts instead of
    printing-and-continuing, ``-fno-omit-frame-pointer -g`` for readable
    reports, and ``-Wall -Wextra -Werror`` so new warnings in the C
    kernel fail the build.  Running the resulting extension requires the
    ASAN runtime to be loaded first (``LD_PRELOAD=$(gcc
    -print-file-name=libasan.so)``) and CPython's intentional exit leaks
    silenced (``ASAN_OPTIONS=detect_leaks=0``); see scripts/ci.sh.
"""

import os
import shlex

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

SANITIZE_COMPILE_ARGS = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
    "-g",
    "-Wall",
    "-Wextra",
    "-Werror",
]
SANITIZE_LINK_ARGS = ["-fsanitize=address,undefined"]


def _kernel_build_args():
    """(compile_args, link_args) from the REPRO_KERNEL_* environment."""

    compile_args = []
    link_args = []
    if os.environ.get("REPRO_KERNEL_SANITIZE") == "1":
        compile_args += SANITIZE_COMPILE_ARGS
        link_args += SANITIZE_LINK_ARGS
    compile_args += shlex.split(os.environ.get("REPRO_KERNEL_CFLAGS", ""))
    return compile_args, link_args


class optional_build_ext(build_ext):
    """``build_ext`` that degrades to a warning when the toolchain is absent."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler, missing headers, ...
            self._handle(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._handle(exc)

    @staticmethod
    def _handle(exc):
        if os.environ.get("REPRO_REQUIRE_KERNEL"):
            raise
        print(
            "WARNING: building the compiled SABRE kernel failed "
            f"({exc!r}); continuing without it -- SabreMapper(kernel='auto') "
            "falls back to the bit-identical, slower Python reference loop. "
            "Set REPRO_REQUIRE_KERNEL=1 to make this fatal."
        )


_compile_args, _link_args = _kernel_build_args()

setup(
    ext_modules=[
        Extension(
            "repro.baselines._sabre_kernel",
            sources=["src/repro/baselines/_sabre_kernel.c"],
            extra_compile_args=_compile_args,
            extra_link_args=_link_args,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
