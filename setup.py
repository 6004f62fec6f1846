"""Package metadata and build for ``repro``.

The metadata lives here, with no ``pyproject.toml``, so that
``pip install -e . --no-use-pep517`` works on machines without the
``wheel`` package (offline machines).  numpy is the only install
requirement: cffi is imported lazily by the ``native`` kernel, the one
feature that uses it.

As a convenience, building the package also best-effort pre-compiles the
``native`` kernel extension so installed environments do not pay the
build-on-first-use cost.  The prebuild is strictly optional: on machines
without cffi or a C compiler it is skipped with a notice and the install
proceeds — the runtime falls back to the ``vectorized`` backend exactly as
if the extension had never been built.
"""

import os
import re
import sys

from setuptools import find_packages, setup
from setuptools.command.build_py import build_py

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version() -> str:
    """``repro.__version__``, read from the source without importing it."""
    with open(os.path.join(HERE, "src", "repro", "__init__.py")) as fh:
        return re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M).group(1)


class build_py_with_native(build_py):
    """Standard build_py plus an optional native-kernel prebuild."""

    def run(self):
        super().run()
        src = os.path.join(HERE, "src")
        sys.path.insert(0, src)
        try:
            from repro.kernels.native import builder

            builder.load_native_lib()
            print("repro: prebuilt native kernel extension")
        except Exception as exc:  # never fail the install over the fast path
            print(f"repro: skipping native kernel prebuild ({exc})")
        finally:
            if sys.path and sys.path[0] == src:
                sys.path.pop(0)


setup(
    name="repro",
    version=read_version(),
    description="IS-ASGD: asynchronous SGD with importance sampling (Wang et al., ICPP 2018)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
    cmdclass={"build_py": build_py_with_native},
)
