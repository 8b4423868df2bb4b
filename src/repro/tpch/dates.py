"""Date constants and helpers for TPC-H (int days since 1970-01-01)."""

from __future__ import annotations

from ..execution.expressions import days

__all__ = [
    "START_DATE", "END_DATE", "CURRENT_DATE", "ORDER_DATE_MIN",
    "ORDER_DATE_MAX", "days",
]

#: the TPC-H population interval
START_DATE = days("1992-01-01")
END_DATE = days("1998-12-31")
#: dbgen's CURRENTDATE, used for return flags and line status
CURRENT_DATE = days("1995-06-17")
#: order dates span [STARTDATE, ENDDATE - 151 days]
ORDER_DATE_MIN = START_DATE
ORDER_DATE_MAX = END_DATE - 151
