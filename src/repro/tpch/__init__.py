"""TPC-H substrate: schema, generator, all 22 queries, runner."""

from . import queries
from .datagen import generate, table_cardinalities
from .dates import CURRENT_DATE, END_DATE, START_DATE, days
from .runner import QueryRunner, run_query
from .schema import add_paper_hints, build_schema

__all__ = [
    "queries",
    "generate",
    "table_cardinalities",
    "CURRENT_DATE",
    "END_DATE",
    "START_DATE",
    "days",
    "QueryRunner",
    "run_query",
    "add_paper_hints",
    "build_schema",
]
