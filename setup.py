from pathlib import Path

from setuptools import Command, setup


class build_native(Command):
    """Build the optional compiled inspector backend (plain C via ctypes).

    `python setup.py build_native` == `python -m repro.core.backends.build`.
    The library is optional: nothing at import or run time requires it.
    When it is built the inspector's coarsen and lbp stages run it; when it
    is absent they run numpy.
    """

    description = "build the optional native inspector library"
    user_options = [("force", "f", "rebuild even when up to date")]

    def initialize_options(self):
        self.force = False

    def finalize_options(self):
        pass

    def run(self):
        import sys

        sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
        from repro.core.backends.build import build

        build(force=bool(self.force))


# Metadata lives in pyproject.toml; this shim enables legacy editable
# installs ("pip install -e .") on environments without the `wheel` package
# and carries the optional native-build command.
setup(cmdclass={"build_native": build_native})
