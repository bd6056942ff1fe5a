"""Ablations table smoke test (tiny batches: machinery, not numbers)."""

from repro.bench.ablations import ablations_table

from tests.conftest import needs_cc

pytestmark = needs_cc


def test_ablations_table_has_all_six_groups():
    t = ablations_table(batches=1)
    assert t.table_id == "ablations"
    assert {r[0] for r in t.rows} == {
        "strategy", "FMA selection", "unroll", "prefetch", "scheduling",
        "register queues"}
    assert "register queues" in t.render()
