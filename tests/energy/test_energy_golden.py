"""Golden fingerprints for end-to-end energy accounting.

One seeded classic run with an :class:`~repro.energy.EnergyModel` on the
config, executed on **both** engines.  Pins:

* the charged totals (tx / rx / sense) to exact constants — any change
  to the dispatch hooks, the cost algebra, or the delivery schedule
  shows up here first;
* engine equality — rx is charged at *dispatch* time, so the per-region
  maps are a pure function of the send set and the K=2 merge must agree
  with the serial ledger (up to float association order, hence
  ``approx``);
* the canonical trace fingerprint — attaching a ledger must not perturb
  the simulation itself.
"""

import pytest

from repro.energy import EnergyModel, energy_metrics
from repro.mobility.gen.workload import GeneratedWalk
from repro.scenario import ScenarioConfig
from repro.service.service import TrackingService

MODEL = EnergyModel(
    tx_cost=1.0, rx_cost=0.5, idle_cost=0.01, sense_cost=0.2, budget=500.0
)

#: Pinned constants for (r=2, MAX=2, seed=7, uniform-walk 6 moves /
#: 3 finds).  Regenerate by printing ``plain.energy`` after a deliberate
#: cost-model or schedule change.
GOLDEN = {
    "tx": 194.0,
    "rx": 97.0,
    "sense": 1.4,
    "total": 292.4,
    "dispatches": 168,
    "senses": 7,
    "fingerprint": "d85e688f37c24cfc",
}


@pytest.fixture(scope="module")
def runs():
    config = ScenarioConfig(
        r=2, max_level=2, system="vinestalk", seed=7, energy=MODEL
    )
    walk = GeneratedWalk(
        r=2, max_level=2, mobility="uniform-walk", n_moves=6, n_finds=3
    )
    plain = TrackingService(config, engine="plain").run(walk)
    sharded = TrackingService(
        config.with_(shards=2), engine="sharded"
    ).run(walk)
    return plain, sharded


def test_plain_totals_pinned(runs):
    plain, _ = runs
    totals = plain.energy["totals"]
    assert totals["tx"] == pytest.approx(GOLDEN["tx"])
    assert totals["rx"] == pytest.approx(GOLDEN["rx"])
    assert totals["sense"] == pytest.approx(GOLDEN["sense"])
    assert totals["total"] == pytest.approx(GOLDEN["total"])
    assert plain.energy["dispatches"] == GOLDEN["dispatches"]
    assert plain.energy["senses"] == GOLDEN["senses"]


def test_engines_agree(runs):
    plain, sharded = runs
    assert plain.canonical_fingerprint == GOLDEN["fingerprint"]
    assert sharded.canonical_fingerprint == GOLDEN["fingerprint"]
    for key in ("tx", "rx", "sense", "total"):
        assert sharded.energy["totals"][key] == pytest.approx(
            plain.energy["totals"][key]
        )
    assert sharded.energy["dispatches"] == plain.energy["dispatches"]
    assert sharded.energy["senses"] == plain.energy["senses"]
    # Per-region maps agree region by region (float association aside).
    assert set(sharded.energy["per_region"]) == set(
        plain.energy["per_region"]
    )
    for region, entry in plain.energy["per_region"].items():
        other = sharded.energy["per_region"][region]
        for part in ("tx", "rx", "sense", "total"):
            assert other[part] == pytest.approx(entry[part])


def test_ledger_does_not_perturb_simulation(runs):
    plain, _ = runs
    bare = TrackingService(
        ScenarioConfig(r=2, max_level=2, system="vinestalk", seed=7),
        engine="plain",
    ).run(
        GeneratedWalk(
            r=2, max_level=2, mobility="uniform-walk", n_moves=6, n_finds=3
        )
    )
    assert bare.canonical_fingerprint == plain.canonical_fingerprint
    assert bare.energy is None


def test_lifetime_metrics(runs):
    plain, _ = runs
    metrics = energy_metrics(plain.energy, MODEL, plain.now, n_regions=16)
    assert metrics["charged_energy"] == pytest.approx(GOLDEN["total"])
    assert metrics["idle_energy"] == pytest.approx(
        MODEL.idle_cost * plain.now * 16
    )
    assert metrics["total_energy"] == pytest.approx(
        metrics["charged_energy"] + metrics["idle_energy"]
    )
    # A finite budget projects a finite, positive first-node-death time.
    assert metrics["first_node_death"] is not None
    assert metrics["first_node_death"] > 0
    assert metrics["network_lifetime"] == metrics["first_node_death"]
