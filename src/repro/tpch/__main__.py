"""Entry point for ``python -m repro.tpch``."""

from ..observe.sink import run_main
from .cli import main

run_main(main)
