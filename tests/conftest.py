"""Hands the checkout's ``src`` on to the subprocesses the tests start, as
``pythonpath`` in pyproject.toml does for the test process itself, so
``python -m fctnlr`` runs this checkout's package whether or not one is
installed."""
import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
