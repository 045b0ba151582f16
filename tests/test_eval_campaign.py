"""Tests for the campaign orchestrator and its persistent result store."""

import json
from pathlib import Path

import pytest

from repro.core.evaluator import LOAD_MODE, SLA_MODE
from repro.eval.campaign import (
    AggregatePoint,
    CampaignSpec,
    CampaignSpecMismatch,
    CampaignStore,
    aggregate_campaign,
    build_record,
    config_from_jsonable,
    config_hash,
    run_campaign,
)
from repro.eval.experiment import ExperimentConfig, run_comparison
from repro.eval.results import to_jsonable

# Small enough that one config runs in well under a second on the
# 16-node ISP backbone, large enough that the searches actually move.
TINY = CampaignSpec(
    topologies=("isp",),
    modes=(LOAD_MODE,),
    target_utilizations=(0.5, 0.6),
    seeds=(1, 2),
    scale=0.02,
)


class TestSpec:
    def test_expansion_is_full_product(self):
        spec = CampaignSpec(
            topologies=("isp", "random"),
            modes=(LOAD_MODE, SLA_MODE),
            high_fractions=(0.2, 0.3),
            high_densities=(0.1,),
            target_utilizations=(0.5, 0.6, 0.7),
            seeds=(1, 2),
        )
        configs = spec.expand()
        assert len(configs) == 2 * 2 * 2 * 1 * 3 * 2
        assert len({config_hash(c) for c in configs}) == len(configs)

    def test_expansion_order_is_deterministic(self):
        assert TINY.expand() == TINY.expand()
        # seeds vary fastest, topology slowest
        configs = TINY.expand()
        assert [c.seed for c in configs[:2]] == [1, 2]
        assert configs[0].target_utilization == configs[1].target_utilization

    def test_scale_shrinks_budgets(self):
        config = TINY.expand()[0]
        default = ExperimentConfig().search_params
        assert config.search_params.iterations_high < default.iterations_high

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec(topologies=())
        with pytest.raises(ValueError, match="scale"):
            CampaignSpec(scale=0.0)

    def test_jsonable_round_trip(self):
        data = json.loads(json.dumps(to_jsonable(TINY)))
        assert CampaignSpec.from_jsonable(data) == TINY

    def test_from_jsonable_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            CampaignSpec.from_jsonable({"topologies": ["isp"], "typo": 1})


class TestConfigHash:
    def test_stable_across_equivalent_constructions(self):
        a = ExperimentConfig(topology="isp", seed=3)
        b = ExperimentConfig(seed=3, topology="isp")
        assert config_hash(a) == config_hash(b)

    def test_survives_json_round_trip(self):
        config = TINY.expand()[0]
        rebuilt = config_from_jsonable(json.loads(json.dumps(to_jsonable(config))))
        assert rebuilt == config
        assert config_hash(rebuilt) == config_hash(config)

    def test_any_field_change_changes_hash(self):
        base = ExperimentConfig(topology="isp")
        assert config_hash(base) != config_hash(ExperimentConfig(topology="isp", seed=2))
        assert config_hash(base) != config_hash(
            ExperimentConfig(topology="isp", high_fraction=0.31)
        )

    def test_pinned_value(self):
        """The hash is part of the on-disk format: changing it orphans
        every existing campaign store, so it must not drift by accident.
        Both values name records stored while configs still carried the
        retired ``incremental`` field."""
        assert config_hash(ExperimentConfig()) == "198ea5720ca42d8dfe83"
        assert (
            config_hash(ExperimentConfig(topology="isp", mode="sla", seed=2))
            == "bbbb7a4c629df0c85a7b"
        )
        assert "incremental" not in to_jsonable(ExperimentConfig())


class TestStore:
    def test_initialize_and_resume_same_spec(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        store.initialize(TINY)  # no-op
        assert store.load_spec() == TINY

    def test_initialize_rejects_different_spec(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        other = CampaignSpec(topologies=("random",))
        with pytest.raises(CampaignSpecMismatch):
            store.initialize(other)

    def test_record_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        record = {"format": 1, "config": {"seed": 1}, "metrics": {"ratio_low": 2.0}}
        store.write_record("abc123", record)
        assert store.completed_keys() == {"abc123"}
        assert store.load_record("abc123") == record
        assert list(store.iter_records()) == [record]

    def test_write_record_leaves_no_temp_files(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        store.write_record("k", {"format": 1})
        assert [p.name for p in store.records_dir.iterdir()] == ["k.json"]

    def test_heartbeats(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        store.write_heartbeat("k", {"phase": "str", "iteration": 5, "total": 10})
        assert store.heartbeats()["k"]["iteration"] == 5
        store.clear_heartbeat("k")
        store.clear_heartbeat("k")  # idempotent
        assert store.heartbeats() == {}


@pytest.fixture(scope="module")
def serial_campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign") / "serial"
    summary = run_campaign(TINY, root, workers=1)
    return root, summary


class TestRunCampaign:
    def test_serial_run_completes(self, serial_campaign):
        root, summary = serial_campaign
        assert summary.executed == 4
        assert summary.skipped == 0
        store = CampaignStore(root)
        expected = {config_hash(c) for c in TINY.expand()}
        assert store.completed_keys() == expected
        status = store.status()
        assert (status.completed, status.total) == (4, 4)
        assert status.pending == ()
        assert "4/4" in status.format()

    def test_records_match_direct_run(self, serial_campaign):
        root, _ = serial_campaign
        config = TINY.expand()[0]
        stored = CampaignStore(root).load_record(config_hash(config))
        direct = json.loads(
            json.dumps(to_jsonable(build_record(config, run_comparison(config))))
        )
        assert stored == direct

    def test_resume_executes_only_missing_configs(self, serial_campaign, tmp_path):
        root, _ = serial_campaign
        # Clone the completed store, then knock one record out: a
        # pre-seeded partial directory, as after an interrupt.
        partial = tmp_path / "partial"
        store = CampaignStore(partial)
        store.initialize(TINY)
        victim = config_hash(TINY.expand()[2])
        for key in CampaignStore(root).completed_keys():
            if key != victim:
                store.write_record(key, CampaignStore(root).load_record(key))

        events = []
        summary = run_campaign(
            TINY, partial, workers=1, progress=lambda ev, key: events.append((ev, key))
        )
        assert summary.executed == 1
        assert summary.skipped == 3
        assert [e for e in events if e[0] != "skip"] == [
            ("run", victim), ("done", victim)
        ]
        assert store.completed_keys() == CampaignStore(root).completed_keys()

    def test_parallel_records_bit_identical_to_serial(self, serial_campaign, tmp_path):
        """The hard correctness bar: workers=4 == workers=1, byte for byte."""
        root, _ = serial_campaign
        parallel = tmp_path / "parallel"
        run_campaign(TINY, parallel, workers=4)
        serial_files = sorted((Path(root) / "records").glob("*.json"))
        parallel_files = sorted((parallel / "records").glob("*.json"))
        assert [p.name for p in serial_files] == [p.name for p in parallel_files]
        for sf, pf in zip(serial_files, parallel_files):
            assert sf.read_bytes() == pf.read_bytes(), sf.name

    def test_heartbeats_are_cleared_after_completion(self, serial_campaign):
        root, _ = serial_campaign
        assert CampaignStore(root).heartbeats() == {}


class TestFailureScenarios:
    def test_record_carries_robustness_summary(self, tmp_path):
        spec = CampaignSpec(
            topologies=("isp",), target_utilizations=(0.5,), seeds=(1,),
            scale=0.02, failure_scenarios=True,
        )
        run_campaign(spec, tmp_path / "c", workers=1)
        store = CampaignStore(tmp_path / "c")
        (record,) = list(store.iter_records())
        for scheme in ("str", "dtr"):
            summary = record["robustness"][scheme]
            assert summary["scenarios"] > 0
            assert summary["degradation_factor"] >= 1.0


class TestScenarioGrids:
    def test_record_carries_per_class_scenario_summary(self, tmp_path):
        spec = CampaignSpec(
            topologies=("isp",), target_utilizations=(0.5,), seeds=(1,),
            scale=0.02, scenario_kinds=("link", "surge"),
        )
        run_campaign(spec, tmp_path / "c", workers=1)
        store = CampaignStore(tmp_path / "c")
        (record,) = list(store.iter_records())
        summary = record["scenarios"]
        assert summary["kinds"] == ["link", "surge"]
        for scheme in ("str", "dtr"):
            classes = summary[scheme]["classes"]
            assert set(classes) == {"link", "surge"}
            assert classes["link"]["scenarios"] == 35  # every ISP adjacency
            assert classes["link"]["degradation_factor"] >= 1.0
            assert classes["surge"]["scenarios"] == 16  # every node
            assert summary[scheme]["baseline_phi_low"] > 0

    def test_unknown_scenario_kind_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="warp"):
            CampaignSpec(scenario_kinds=("warp",))

    def test_non_enumerable_kind_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="no sweep grid"):
            CampaignSpec(scenario_kinds=("shift",))

    def test_spec_round_trips_scenario_kinds(self):
        spec = CampaignSpec(scenario_kinds=("link", "node"))
        rebuilt = CampaignSpec.from_jsonable(to_jsonable(spec))
        assert rebuilt == spec
        assert rebuilt.scenario_kinds == ("link", "node")


class TestAggregate:
    def test_grid_points_and_seed_means(self, serial_campaign):
        root, _ = serial_campaign
        aggregate = aggregate_campaign(root)
        assert aggregate.records == 4
        assert len(aggregate.points) == 2  # two targets, seeds folded
        for point in aggregate.points:
            assert isinstance(point, AggregatePoint)
            assert point.seeds == 2
            assert point.ratio_low_min <= point.ratio_low <= point.ratio_low_max
        targets = [p.target_utilization for p in aggregate.points]
        assert targets == sorted(targets)

    def test_mean_matches_records(self, serial_campaign):
        root, _ = serial_campaign
        store = CampaignStore(root)
        aggregate = aggregate_campaign(store)
        point = aggregate.points[0]
        matching = [
            r["metrics"]["ratio_low"]
            for r in store.iter_records()
            if r["config"]["target_utilization"] == point.target_utilization
        ]
        assert point.ratio_low == pytest.approx(sum(matching) / len(matching))

    def test_select_filters(self, serial_campaign):
        root, _ = serial_campaign
        aggregate = aggregate_campaign(root)
        assert len(aggregate.select(topology="isp", mode=LOAD_MODE)) == 2
        assert aggregate.select(topology="random") == ()

    def test_format(self, serial_campaign):
        root, _ = serial_campaign
        text = aggregate_campaign(root).format()
        assert "R_L" in text and "isp" in text

    def test_figures_consume_campaign(self, serial_campaign):
        from repro.eval.figures import fig2_from_campaign, series_from_campaign

        root, _ = serial_campaign
        result = fig2_from_campaign(root, "isp", LOAD_MODE)
        assert len(result.series.points) == 2
        assert "Fig.2" in result.format()
        with pytest.raises(ValueError, match="no records"):
            series_from_campaign(root, "x", "powerlaw", LOAD_MODE)


class TestReviewRegressions:
    def test_status_drops_stale_heartbeats_and_shows_pending(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        configs = TINY.expand()
        done_key = config_hash(configs[0])
        record = {"format": 1, "config": to_jsonable(configs[0]), "metrics": {}}
        store.write_record(done_key, record)
        # A crashed worker left a heartbeat for the *completed* config:
        store.write_heartbeat(done_key, {"phase": "str", "iteration": 1, "total": 2})
        status = store.status()
        assert status.heartbeats == {}  # stale beat excluded
        assert len(status.pending) == 3
        assert "3 configs pending" in status.format()

    def test_run_campaign_clears_stale_heartbeats(self, tmp_path):
        root = tmp_path / "c"
        store = CampaignStore(root)
        store.initialize(TINY)
        store.write_heartbeat("deadbeef", {"phase": "str", "iteration": 1, "total": 2})
        run_campaign(TINY, root, workers=1)
        assert store.heartbeats() == {}

    def test_status_on_missing_directory_raises_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a campaign directory"):
            CampaignStore(tmp_path / "nope").status()

    def test_aggregate_on_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a campaign directory"):
            aggregate_campaign(tmp_path / "nope")

    def test_campaign_figures_pin_unswept_dimensions(self, tmp_path):
        """A campaign sweeping both f and k must not leak foreign grid
        points into a curve that varies only one of them."""
        from repro.eval.figures import fig4_from_campaign

        store = CampaignStore(tmp_path / "c")
        store.initialize(TINY)
        base = to_jsonable(ExperimentConfig(topology="random"))
        n = 0
        for fraction in (0.20, 0.40):
            for density in (0.10, 0.30):
                config = dict(base)
                config["high_fraction"] = fraction
                config["high_density"] = density
                n += 1
                store.write_record(
                    f"fake{n}",
                    {
                        "format": 1,
                        "config": config,
                        "metrics": {
                            "ratio_high": 1.0,
                            "ratio_low": 10.0 * density,  # distinguishes k
                            "measured_utilization": 0.6,
                        },
                    },
                )
        result = fig4_from_campaign(store)  # pins k=0.10
        assert [len(s.points) for s in result.series] == [1, 1]
        for series in result.series:
            assert series.points[0].ratio_low == pytest.approx(1.0)
