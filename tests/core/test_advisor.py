"""Algorithm 2 on TPC-H and on the paper's Figure 1 style schema."""

import numpy as np
import pytest

from repro.catalog import DATE, INT32, Schema
from repro.core.advisor import AdvisorConfig, SchemaAdvisor
from repro.core.binning import equi_frequency_cuts
from repro.core.bits import scatter_bins_into_key
from repro.storage.database import Database
from repro.tpch.datagen import generate


@pytest.fixture(scope="module")
def tiny_tpch():
    return generate(scale_factor=0.002, seed=5)


@pytest.mark.parametrize("max_bits", [13, 4])
@pytest.mark.parametrize("seed", [7, 11])
def test_host_row_binning_equals_binning_every_using_row(seed, max_bits):
    # bins are computed once per host row and gathered over each path;
    # the reference resolves and bins every using row's key values
    # (4 bits forces quantile cuts, where multiplicities matter)
    db = generate(scale_factor=0.002, seed=seed)
    advisor = SchemaAdvisor(db.schema, AdvisorConfig(max_dimension_bits=max_bits))
    pending, _ = advisor.discover()
    design = advisor.design(db)
    for name, spec in pending.items():
        dim = design.dimensions[name]
        parts = [db.resolve_path_values(t, path, spec.key) for t, path in spec.usages]
        values = [np.concatenate([part[i] for part in parts]) for i in range(len(spec.key))]
        expected = equi_frequency_cuts(dim.encoder.encode(values), max_bits)
        assert np.array_equal(dim.uppers, expected), name
    for table, bdcc in advisor.build(db, design).items():
        keys = np.zeros(db.num_rows(table), dtype=np.uint64)
        for use in bdcc.uses:
            values = db.resolve_path_values(table, use.path, use.dimension.key)
            bins = use.dimension.bin_of_values(values)
            scatter_bins_into_key(bins, use.dimension.bits, use.mask, keys)
        assert np.array_equal(bdcc.keys, keys[bdcc.row_source]), table


def test_a_design_and_build_walk_each_foreign_key_once(monkeypatch):
    # the advisor keeps each foreign key's parent rows across the walks
    # of a design and its build, and a whole-table walk gathers them at
    # the rows reached: the same rows as probing every row step by step,
    # the way a subset walks
    db = generate(scale_factor=0.002, seed=7)
    walked = []
    follow = Database.follow_foreign_key

    def counting(self, fk_name, child_rows=None):
        walked.append(fk_name)
        return follow(self, fk_name, child_rows)

    monkeypatch.setattr(Database, "follow_foreign_key", counting)
    advisor = SchemaAdvisor(db.schema)
    design = advisor.design(db)
    advisor.build(db, design)
    assert walked and len(walked) == len(set(walked))
    for table, uses in design.table_uses.items():
        for use in uses:
            host, rows = db.walk_path(table, use.path)
            every = np.arange(db.num_rows(table))
            probed_host, probed = db.walk_path(table, use.path, every)
            assert host == probed_host
            assert np.array_equal(every if rows is None else rows, probed)


class TestTPCHDiscovery:
    def test_three_dimensions_created(self, tiny_tpch):
        design = SchemaAdvisor(tiny_tpch.schema).design(tiny_tpch)
        assert set(design.dimensions) == {"D_NATION", "D_PART", "D_DATE"}

    def test_dimension_hosts_and_keys(self, tiny_tpch):
        design = SchemaAdvisor(tiny_tpch.schema).design(tiny_tpch)
        nation = design.dimensions["D_NATION"]
        assert nation.table == "nation"
        assert nation.key == ("n_regionkey", "n_nationkey")
        assert nation.bits == 5  # the paper's dimension table
        part = design.dimensions["D_PART"]
        assert part.table == "part" and part.key == ("p_partkey",)
        date = design.dimensions["D_DATE"]
        assert date.table == "orders" and date.key == ("o_orderdate",)

    def test_paper_dimension_uses(self, tiny_tpch):
        design = SchemaAdvisor(tiny_tpch.schema).design(tiny_tpch)

        def uses(table):
            return [(u.dimension.name, u.path) for u in design.uses_for(table)]

        assert uses("nation") == [("D_NATION", ())]
        assert uses("supplier") == [("D_NATION", ("FK_S_N",))]
        assert uses("customer") == [("D_NATION", ("FK_C_N",))]
        assert uses("part") == [("D_PART", ())]
        assert uses("partsupp") == [
            ("D_PART", ("FK_PS_P",)),
            ("D_NATION", ("FK_PS_S", "FK_S_N")),
        ]
        assert uses("orders") == [
            ("D_DATE", ()),
            ("D_NATION", ("FK_O_C", "FK_C_N")),
        ]
        assert uses("lineitem") == [
            ("D_DATE", ("FK_L_O",)),
            ("D_NATION", ("FK_L_O", "FK_O_C", "FK_C_N")),
            ("D_NATION", ("FK_L_S", "FK_S_N")),
            ("D_PART", ("FK_L_P",)),
        ]

    def test_region_stays_unclustered(self, tiny_tpch):
        design = SchemaAdvisor(tiny_tpch.schema).design(tiny_tpch)
        assert not design.uses_for("region")

    def test_build_covers_all_clustered_tables(self, tiny_tpch):
        advisor = SchemaAdvisor(tiny_tpch.schema)
        built = advisor.build(tiny_tpch)
        assert set(built) == {
            "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        }
        for name, table in built.items():
            assert table.count_table.total_rows() == tiny_tpch.num_rows(name)

    def test_max_uses_cap(self, tiny_tpch):
        config = AdvisorConfig(max_uses_per_table=2)
        design = SchemaAdvisor(tiny_tpch.schema, config).design(tiny_tpch)
        assert len(design.uses_for("lineitem")) == 2

    def test_describe_dimensions_rows(self, tiny_tpch):
        design = SchemaAdvisor(tiny_tpch.schema).design(tiny_tpch)
        rows = {r[0]: r for r in design.describe_dimensions()}
        assert rows["D_NATION"] == ("D_NATION", 5, "nation", "n_regionkey,n_nationkey")


class TestFigure1Schema:
    """The A/B/C schema of Figure 1: B co-clusters with A (D1, D2) and
    with C (D1 via a different path, D3); A and C share D1 without being
    FK-connected."""

    def _db(self):
        schema = Schema()
        schema.add_table("d1", [("geo", INT32)], primary_key=["geo"])
        schema.add_table("d2", [("yr", INT32)], primary_key=["yr"])
        schema.add_table("d3", [("val", INT32)], primary_key=["val"])
        schema.add_table(
            "a", [("a_id", INT32), ("a_geo", INT32), ("a_yr", INT32)], primary_key=["a_id"]
        )
        schema.add_table(
            "c", [("c_id", INT32), ("c_geo", INT32), ("c_val", INT32)], primary_key=["c_id"]
        )
        schema.add_table(
            "b", [("b_id", INT32), ("b_a", INT32), ("b_c", INT32)], primary_key=["b_id"]
        )
        schema.add_foreign_key("FK_A_D1", "a", ["a_geo"], "d1")
        schema.add_foreign_key("FK_A_D2", "a", ["a_yr"], "d2")
        schema.add_foreign_key("FK_C_D1", "c", ["c_geo"], "d1")
        schema.add_foreign_key("FK_C_D3", "c", ["c_val"], "d3")
        schema.add_foreign_key("FK_B_A", "b", ["b_a"], "a")
        schema.add_foreign_key("FK_B_C", "b", ["b_c"], "c")
        # hints: dimensions on the leaves, FK hints everywhere
        schema.add_index_hint("i_d1", "d1", ["geo"], dimension_name="D1")
        schema.add_index_hint("i_d2", "d2", ["yr"], dimension_name="D2")
        schema.add_index_hint("i_d3", "d3", ["val"], dimension_name="D3")
        schema.add_index_hint("i_a_geo", "a", ["a_geo"])
        schema.add_index_hint("i_a_yr", "a", ["a_yr"])
        schema.add_index_hint("i_c_geo", "c", ["c_geo"])
        schema.add_index_hint("i_c_val", "c", ["c_val"])
        schema.add_index_hint("i_b_a", "b", ["b_a"])
        schema.add_index_hint("i_b_c", "b", ["b_c"])

        rng = np.random.default_rng(0)
        db = Database(schema)
        db.add_table_data("d1", {"geo": np.arange(4, dtype=np.int32)})
        db.add_table_data("d2", {"yr": np.arange(4, dtype=np.int32)})
        db.add_table_data("d3", {"val": np.arange(4, dtype=np.int32)})
        db.add_table_data("a", {
            "a_id": np.arange(64, dtype=np.int32),
            "a_geo": rng.integers(0, 4, 64).astype(np.int32),
            "a_yr": rng.integers(0, 4, 64).astype(np.int32),
        })
        db.add_table_data("c", {
            "c_id": np.arange(64, dtype=np.int32),
            "c_geo": rng.integers(0, 4, 64).astype(np.int32),
            "c_val": rng.integers(0, 4, 64).astype(np.int32),
        })
        db.add_table_data("b", {
            "b_id": np.arange(256, dtype=np.int32),
            "b_a": rng.integers(0, 64, 256).astype(np.int32),
            "b_c": rng.integers(0, 64, 256).astype(np.int32),
        })
        return db

    def test_b_inherits_four_uses(self):
        db = self._db()
        design = SchemaAdvisor(db.schema).design(db)
        uses = [(u.dimension.name, u.path) for u in design.uses_for("b")]
        assert uses == [
            ("D1", ("FK_B_A", "FK_A_D1")),
            ("D2", ("FK_B_A", "FK_A_D2")),
            ("D1", ("FK_B_C", "FK_C_D1")),
            ("D3", ("FK_B_C", "FK_C_D3")),
        ]

    def test_a_and_c_share_d1(self):
        db = self._db()
        design = SchemaAdvisor(db.schema).design(db)
        a_dims = {u.dimension.name for u in design.uses_for("a")}
        c_dims = {u.dimension.name for u in design.uses_for("c")}
        assert "D1" in a_dims and "D1" in c_dims

    def test_b_clusters_twice_on_d1_as_distinct_instances(self):
        db = self._db()
        design = SchemaAdvisor(db.schema).design(db)
        d1_uses = [u for u in design.uses_for("b") if u.dimension.name == "D1"]
        assert len(d1_uses) == 2
        assert d1_uses[0].instance != d1_uses[1].instance
