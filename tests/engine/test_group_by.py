"""GROUP BY: result digests, a differential test against ``np.unique``,
the group-code cache, the split-and-merge law and the span attributes.

``tests/goldens/group_by.json`` holds a digest of every result column's
bytes plus the simulated cost of a grid of grouped queries: COUNT, SUM,
AVG, MIN and MAX over an int64, an int32, a string and a float group
column (the float one holding NaN, ±inf and ±0.0); no, partial, one-row
and empty WHERE; ORDER BY an aggregate or the group column, ascending
and descending, or no ORDER BY; every strategy on 1 and 2 shards.  It
was recorded from the sort-based GROUP BY (``np.unique`` per query), so
a diff here means the grouping changed an answer, not just its speed.

Regenerate the golden only after a deliberate change to what GROUP BY
returns::

    PYTHONPATH=src python tests/engine/test_group_by.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.engine import Session, generate_tweets
from repro.engine.table import make_table
from repro.errors import ReproError

GOLDEN = Path(__file__).resolve().parent.parent / "goldens" / "group_by.json"

DIGEST_ROWS = 4096
DIGEST_MODEL_ROWS = 250_000_000

GROUP_COLUMNS = ("uid", "bucket", "lang", "score")
WHERE_CLAUSES = ("", "WHERE likes_count > 4", "WHERE id = 27", "WHERE id < 0")
ORDERINGS = (
    "ORDER BY n DESC LIMIT 20",
    "ORDER BY n ASC LIMIT 20",
    "ORDER BY total DESC LIMIT 20",
    "ORDER BY {group} DESC LIMIT 20",
    "ORDER BY {group} ASC LIMIT 20",
    "",
)
STRATEGIES = ("sort", "topk", "fused")
SHARDS = (1, 2)


def digest_table():
    """4096 tweets plus an int32 column holding the int32 extremes and a
    float column holding NaN, ±inf and both zeros."""
    tweets = generate_tweets(DIGEST_ROWS, seed=3)
    rng = np.random.default_rng(11)
    bucket = rng.integers(-3, 4, size=DIGEST_ROWS).astype(np.int32)
    bucket[::97] = np.iinfo(np.int32).min
    bucket[::89] = np.iinfo(np.int32).max
    score = rng.choice(
        np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.5, -2.25, 3.0]),
        size=DIGEST_ROWS,
    )
    columns = {name: tweets.column(name) for name in tweets.column_names}
    columns["lang"] = tweets.decode_strings("lang", tweets.column("lang"))
    columns["bucket"] = bucket
    columns["score"] = score
    return make_table("tweets", columns)


def digest_queries() -> list[str]:
    queries = []
    for group in GROUP_COLUMNS:
        for where in WHERE_CLAUSES:
            for ordering in ORDERINGS:
                queries.append(
                    " ".join(
                        part
                        for part in (
                            f"SELECT {group}, COUNT() AS n, "
                            "SUM(likes_count) AS total, "
                            "AVG(likes_count) AS mean, "
                            "MIN(likes_count) AS low, "
                            "MAX(likes_count) AS high FROM tweets",
                            where,
                            f"GROUP BY {group}",
                            ordering.format(group=group),
                        )
                        if part
                    )
                )
    return queries


def result_digest(result) -> str:
    digest = hashlib.sha256()
    for name in sorted(result.columns):
        column = np.ascontiguousarray(result.columns[name])
        digest.update(f"{name}:{column.dtype.str}:".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()[:16]


def digest_entries() -> list[dict]:
    table = digest_table()
    entries = []
    for shards in SHARDS:
        session = Session(shards=shards)
        session.register(table)
        for sql in digest_queries():
            for strategy in STRATEGIES:
                entry = {"sql": sql, "strategy": strategy, "shards": shards}
                try:
                    result = session.sql(
                        sql, strategy=strategy, model_rows=DIGEST_MODEL_ROWS
                    )
                except ReproError as error:
                    entry["error"] = type(error).__name__
                else:
                    entry.update(
                        rows=result.num_result_rows,
                        digest=result_digest(result),
                        simulated_ms=round(result.simulated_ms(), 9),
                        launches=result.trace.num_launches,
                    )
                entries.append(entry)
    return entries


class TestDigestGolden:
    def test_grid_matches_the_sort_based_golden(self):
        golden = json.loads(GOLDEN.read_text())
        assert golden["format"] == "repro-group-by-digest"
        actual = digest_entries()
        assert len(actual) == len(golden["entries"])
        mismatches = [
            (expected, entry)
            for expected, entry in zip(golden["entries"], actual)
            if expected != entry
        ]
        assert mismatches == [], (
            f"{len(mismatches)} of {len(actual)} grouped queries diverged; "
            f"first: {mismatches[0]}"
        )


# -- differential test against the sort-based grouping ------------------------

_NEGATIVE_NAN = np.copysign(np.nan, -1.0)
_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
_KEY_POOLS = {
    "int64": np.array(
        [np.iinfo(np.int64).min, np.iinfo(np.int64).min + 1, -1, 0, 1,
         np.iinfo(np.int64).max],
        dtype=np.int64,
    ),
    "int32": np.array(
        [np.iinfo(np.int32).min, -7, 0, 7, np.iinfo(np.int32).max],
        dtype=np.int32,
    ),
    "float64": np.array(
        [np.nan, _NEGATIVE_NAN, _PAYLOAD_NAN, np.inf, -np.inf, 0.0, -0.0,
         1.5, -2.5, np.finfo(np.float64).max, np.finfo(np.float64).tiny]
    ),
    "float32": np.array(
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.5],
        dtype=np.float32,
    ),
    "str": np.array(["en", "es", "", "zz", "ja"]),
}

GROUPED = (
    "SELECT k, COUNT() AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, "
    "MAX(v) AS hi FROM t WHERE flag = 1 GROUP BY k"
)


@st.composite
def grouped_tables(draw):
    """A table ``t(k, v, flag)``: keys from a pool of extreme values in
    one, a few or all-distinct groups, small integer values (so sums
    are exact in any order) and a filter flag that selects all, none
    or some rows."""
    kind = draw(st.sampled_from(sorted(_KEY_POOLS)))
    rows = draw(st.integers(min_value=1, max_value=60))
    shape = draw(st.sampled_from(["pool", "single", "distinct"]))
    pool = _KEY_POOLS[kind]
    if shape == "single":
        keys = np.repeat(pool[draw(st.integers(0, len(pool) - 1))], rows)
    elif shape == "distinct":
        keys = np.arange(rows) - rows // 2
        keys = keys.astype(str) if kind == "str" else keys.astype(kind)
    else:
        picks = draw(
            st.lists(
                st.integers(0, len(pool) - 1), min_size=rows, max_size=rows
            )
        )
        keys = pool[picks]
    values = draw(
        st.lists(st.integers(-5, 5), min_size=rows, max_size=rows)
    )
    selection = draw(st.sampled_from(["all", "none", "some", "some"]))
    if selection == "some":
        flag = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    else:
        flag = [int(selection == "all")] * rows
    return make_table(
        "t",
        {
            "k": keys,
            "v": np.asarray(values, dtype=np.int32),
            "flag": np.asarray(flag, dtype=np.int32),
        },
    )


def reference_group_by(table, mask) -> dict[str, np.ndarray]:
    """The sort-based grouping: ``np.unique`` over the selected keys,
    ordered by descending count as a query without ORDER BY is."""
    groups, inverse, counts = np.unique(
        table.column("k")[mask], return_inverse=True, return_counts=True
    )
    values = table.column("v")[mask].astype(np.float64)
    sums = np.bincount(inverse, weights=values, minlength=len(groups))
    low = np.full(len(groups), np.inf)
    np.minimum.at(low, inverse, values)
    high = np.full(len(groups), -np.inf)
    np.maximum.at(high, inverse, values)
    order = np.argsort(counts)[::-1]
    columns = {"k": groups, "n": counts, "s": sums, "a": sums / counts,
               "lo": low, "hi": high}
    return {name: column[order] for name, column in columns.items()}


class TestDifferential:
    @staticmethod
    def _assert_matches_reference(table):
        session = Session()
        session.register(table)
        with np.errstate(invalid="ignore", divide="ignore"):
            result = session.sql(GROUPED)
            expected = reference_group_by(table, table.column("flag") == 1)
        assert sorted(result.columns) == sorted(expected)
        for name, column in expected.items():
            actual = result.columns[name]
            assert actual.dtype == column.dtype, name
            assert actual.tobytes() == column.tobytes(), name

    @given(table=grouped_tables())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sort_based_grouping(self, table):
        self._assert_matches_reference(table)

    @pytest.mark.parametrize(
        "keys",
        [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [np.nan, _NEGATIVE_NAN, np.nan]],
    )
    def test_shared_group_is_named_by_the_selected_rows(self, keys):
        # The whole column names the group by its first row's bit
        # pattern; the selected rows hold only the other one.
        table = make_table(
            "t",
            {
                "k": np.asarray(keys),
                "v": np.array([1, 2, 3], dtype=np.int32),
                "flag": np.array([0, 1, 0], dtype=np.int32),
            },
        )
        self._assert_matches_reference(table)


# -- the group-code cache -------------------------------------------------------


class TestGroupCodes:
    def test_encoding_is_np_unique_and_built_once(self):
        table = make_table("t", {"k": np.array([3, -1, 3, 9], dtype=np.int64)})
        uniques, codes = table.group_codes("k")
        assert uniques.tolist() == [-1, 3, 9]
        assert codes.dtype == np.int32
        assert codes.tolist() == [1, 0, 1, 2]
        assert table.group_codes("k")[0] is uniques

    def test_string_columns_encode_their_dictionary_codes(self):
        table = make_table("t", {"lang": ["es", "en", "es"]})
        uniques, codes = table.group_codes("lang")
        assert uniques.tolist() == [0, 1]
        assert codes.tolist() == [1, 0, 1]

    def test_returned_arrays_are_read_only(self):
        table = make_table("t", {"k": np.array([2, 1, 2])})
        uniques, codes = table.group_codes("k")
        with pytest.raises(ValueError):
            uniques[0] = 7
        with pytest.raises(ValueError):
            codes[0] = 1
        assert table.group_codes("k")[0].tolist() == [1, 2]

    def test_a_reregistered_table_gets_its_own_encoding(self):
        query = "SELECT k, COUNT() AS n FROM t GROUP BY k ORDER BY k ASC LIMIT 5"
        session = Session()
        first = make_table("t", {"k": np.array([1, 1, 2])})
        session.register(first)
        assert session.sql(query).column("k").tolist() == [1, 2]
        second = make_table("t", {"k": np.array([5, 6, 6, 7])})
        session.register(second)
        result = session.sql(query)
        assert result.column("k").tolist() == [5, 6, 7]
        assert result.column("n").tolist() == [1, 2, 1]
        replaced = dataclasses.replace(first, columns={"k": np.array([4, 4])})
        assert replaced.group_codes("k")[0].tolist() == [4]
        assert first.group_codes("k")[0].tolist() == [1, 2]

    def test_cache_stays_out_of_repr_and_equality(self):
        columns = {"k": np.array([1, 2])}
        encoded, plain = make_table("t", columns), make_table("t", columns)
        before = repr(encoded)
        encoded.group_codes("k")
        assert repr(encoded) == before
        assert encoded == plain


# -- split-and-merge law ---------------------------------------------------------


class TestSplitAndMerge:
    """Aggregates over a partition of the rows are only correct once the
    per-part partials are merged by group (SNIPPETS.md 1 shows the split
    without the merge returning one partial row per part).  Partials
    indexed by the table's group codes merge by plain addition, which is
    what a sharded GROUP BY relies on."""

    @given(
        keys=st.lists(st.integers(-4, 4), min_size=1, max_size=80),
        seed=st.integers(0, 2**31),
        parts=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_partials_over_a_contiguous_partition_sum_to_the_whole(
        self, keys, seed, parts
    ):
        rng = np.random.default_rng(seed)
        values = rng.integers(-1000, 1000, size=len(keys)).astype(np.float64)
        table = make_table("t", {"k": np.asarray(keys, dtype=np.int64)})
        uniques, codes = table.group_codes("k")
        groups = len(uniques)
        cuts = np.sort(rng.integers(0, len(keys) + 1, size=parts - 1))
        bounds = [0, *cuts.tolist(), len(keys)]
        counts = np.zeros(groups, dtype=np.intp)
        sums = np.zeros(groups)
        for start, stop in pairwise(bounds):
            counts += np.bincount(codes[start:stop], minlength=groups)
            sums += np.bincount(
                codes[start:stop], weights=values[start:stop], minlength=groups
            )
        assert np.array_equal(counts, np.bincount(codes, minlength=groups))
        assert np.array_equal(
            sums, np.bincount(codes, weights=values, minlength=groups)
        )


# -- observability ----------------------------------------------------------------


class TestQuerySpan:
    QUERY = (
        "SELECT uid, COUNT() AS n FROM tweets WHERE likes_count > 4 "
        "GROUP BY uid ORDER BY n DESC LIMIT 5"
    )

    def test_records_rows_in_and_groups(self):
        tweets = generate_tweets(2048, seed=1)
        session = Session(trace=True)
        session.register(tweets)
        session.sql(self.QUERY)
        (span,) = [
            span for span in session.tracer.spans("engine")
            if span.name == "query"
        ]
        selected = tweets.column("likes_count") > 4
        assert span.attributes["rows_in"] == int(selected.sum())
        assert span.attributes["groups"] == len(
            np.unique(tweets.column("uid")[selected])
        )

    def test_no_ops_without_observation(self):
        tweets = generate_tweets(2048, seed=1)
        traced, plain = Session(trace=True), Session()
        traced.register(tweets)
        plain.register(tweets)
        assert obs.current_span() is obs.NULL_SPAN
        expected = traced.sql(self.QUERY)
        result = plain.sql(self.QUERY)
        for name, column in expected.columns.items():
            assert result.columns[name].tobytes() == column.tobytes()


def _write_golden() -> None:
    entries = digest_entries()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {"format": "repro-group-by-digest", "entries": entries}, indent=1
        )
        + "\n"
    )
    print(f"wrote {len(entries)} grouped queries to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write_golden()
