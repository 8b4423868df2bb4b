"""The sort-based join and grouping kernels as they were before the
direct-address table and the offset factoriser (PR 23), frozen.

Not a test module: `test_kernel_paths.py` holds the live kernels to these
**bit for bit** — values, order and dtype — which is the contract the
process backend and ``twin_mismatch(exact=True)`` rely on ("same
multiset" is not).  Do not import anything from ``repro`` here and do not
"fix" this file; the two bugs it has (a composite key past 2**63 wraps,
``np.isin`` never matches NaN to NaN) are kept out of the comparison by
the tests' input domains.
"""

import numpy as np


def _factorize_pair(left, right):
    combined = np.concatenate([left, right])
    uniques, inverse = np.unique(combined, return_inverse=True)
    inverse = inverse.astype(np.int64)
    return inverse[: len(left)], inverse[len(left):], len(uniques)


def encode_join_keys(left_cols, right_cols):
    if len(left_cols) == 1:
        left, right = left_cols[0], right_cols[0]
        if left.dtype.kind in "iu" and right.dtype.kind in "iu":
            return left.astype(np.int64), right.astype(np.int64)
        lcode, rcode, _ = _factorize_pair(left, right)
        return lcode, rcode
    lcodes = np.zeros(len(left_cols[0]), dtype=np.int64)
    rcodes = np.zeros(len(right_cols[0]), dtype=np.int64)
    for lcol, rcol in zip(left_cols, right_cols):
        lc, rc, card = _factorize_pair(lcol, rcol)
        lcodes = lcodes * card + lc
        rcodes = rcodes * card + rc
    return lcodes, rcodes


def inner_join_pairs(left_keys, right_keys):
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    if total == 0:
        return left_idx, np.zeros(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    right_idx = order[starts + within]
    return left_idx, right_idx


def left_join_pairs(left_keys, right_keys):
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    out_counts = np.maximum(counts, 1)
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), out_counts)
    starts = np.repeat(lo, out_counts)
    ends = np.cumsum(out_counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - out_counts, out_counts)
    matched = np.repeat(counts > 0, out_counts)
    right_idx = np.full(total, -1, dtype=np.int64)
    take = starts[matched] + within[matched]
    right_idx[matched] = order[take]
    return left_idx, right_idx


def semi_join_mask(left_keys, right_keys):
    return np.isin(left_keys, right_keys)


def group_rows(key_columns):
    codes = np.zeros(len(key_columns[0]), dtype=np.int64)
    for column in key_columns:
        uniques, inverse = np.unique(column, return_inverse=True)
        codes = codes * np.int64(len(uniques)) + inverse.astype(np.int64)
    uniques, first_rows, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return inverse.astype(np.int64), first_rows.astype(np.int64), len(uniques)


def count_distinct(group_index, num_groups, values):
    uniques, inverse = np.unique(values, return_inverse=True)
    pair = group_index.astype(np.int64) * np.int64(len(uniques)) + inverse
    distinct_pairs = np.unique(pair)
    groups_of_pairs = (distinct_pairs // np.int64(len(uniques))).astype(np.int64)
    return np.bincount(groups_of_pairs, minlength=num_groups).astype(np.int64)


def integer_extremum(fn, group_index, num_groups, values):
    """Integer ``min``/``max`` through float64, as the kernel took them:
    exact below 2**53 only."""
    init = np.inf if fn == "min" else -np.inf
    out = np.full(num_groups, init, dtype=np.float64)
    (np.minimum if fn == "min" else np.maximum).at(out, group_index, values.astype(np.float64))
    finite = np.isfinite(out)
    result = np.zeros(num_groups, dtype=np.int64)
    result[finite] = out[finite].astype(np.int64)
    return result


def distinct_per_partition(partition_ids, group_index):
    if len(partition_ids) == 0:
        return np.zeros(0, dtype=np.int64)
    num_groups = int(group_index.max()) + 1 if len(group_index) else 0
    pair = partition_ids.astype(np.int64) * np.int64(max(num_groups, 1)) + group_index
    distinct_pairs = np.unique(pair)
    partitions_of_pairs = distinct_pairs // np.int64(max(num_groups, 1))
    _, counts = np.unique(partitions_of_pairs, return_counts=True)
    return counts.astype(np.int64)


def descending_codes(values):
    """``Sort``'s key for a descending non-numeric column."""
    _, codes = np.unique(values, return_inverse=True)
    return -codes


def value_counts(values):
    """A sandwich join's group sizes."""
    _, counts = np.unique(values, return_counts=True)
    return counts
