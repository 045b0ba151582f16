"""Tests for the command-line interface."""

import json
import warnings

import pytest

from repro.cli import build_parser, main
from repro.network.io import load_network


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_topology_command(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["topology", "--family", "isp", "--out", str(out)]) == 0
    net = load_network(out)
    assert net.num_nodes == 16
    assert "wrote" in capsys.readouterr().out


def test_topology_command_random_seeded(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["topology", "--family", "random", "--seed", "4", "--out", str(out1)])
    main(["topology", "--family", "random", "--seed", "4", "--out", str(out2)])
    assert load_network(out1) == load_network(out2)


def test_figure_command(tmp_path, capsys):
    json_out = tmp_path / "fig.json"
    code = main(
        ["figure", "--id", "fig6", "--scale", "0.02", "--seed", "2", "--json", str(json_out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "Fig.6" in printed
    data = json.loads(json_out.read_text())
    assert "curves" in data


def test_figure_command_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "--id", "fig99"])


def test_compare_command(capsys):
    code = main(
        [
            "compare",
            "--topology",
            "isp",
            "--utilization",
            "0.5",
            "--scale",
            "0.02",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "R_H=" in printed
    assert "STR objective" in printed


@pytest.mark.parametrize("retired", ("full", "incremental"))
def test_compare_has_no_evaluator_switch(retired, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--topology", "isp", f"--{retired}"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --{retired}" in capsys.readouterr().err


class TestOptimizeCommand:
    ARGS = ["--topology", "isp", "--utilization", "0.5", "--scale", "0.02", "--seed", "2"]

    def test_each_builtin_strategy_runs(self, capsys):
        for strategy in ("str", "dtr", "joint", "anneal"):
            code = main(["optimize", "--strategy", strategy, *self.ARGS])
            assert code == 0
            printed = capsys.readouterr().out
            assert f"strategy={strategy}" in printed
            assert "objective:" in printed
            assert "wall_time=" in printed

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["optimize", "--strategy", "dtr", *self.ARGS, "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["strategy"] == "dtr"
        assert len(data["high_weights"]) == len(data["low_weights"])
        assert data["evaluations"] > 0

    def test_unknown_strategy_fails_with_choices(self, capsys):
        code = main(["optimize", "--strategy", "nope", *self.ARGS])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope" in err and "dtr" in err

    def test_joint_in_sla_mode_is_a_clean_error(self, capsys):
        code = main(
            ["optimize", "--strategy", "joint", "--mode", "sla", *self.ARGS]
        )
        assert code == 2
        assert "load" in capsys.readouterr().err


class TestWhatifCommand:
    ARGS = ["--topology", "isp", "--utilization", "0.5", "--seed", "2"]

    def test_weight_move(self, capsys):
        code = main(["whatif", *self.ARGS, "--link", "3", "--new-weight", "17"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "what-if [weights]" in printed
        assert "link 3: 1 -> 17" in printed

    def test_link_requires_new_weight(self, capsys):
        code = main(["whatif", *self.ARGS, "--link", "3"])
        assert code == 2
        assert "--new-weight" in capsys.readouterr().err

    def test_failure_query(self, capsys):
        code = main(["whatif", *self.ARGS, "--failure", "0", "4"])
        assert code == 0
        assert "what-if [failure]" in capsys.readouterr().out

    def test_traffic_scale_query(self, capsys):
        code = main(["whatif", *self.ARGS, "--traffic-scale", "1.2"])
        assert code == 0
        assert "what-if [traffic]" in capsys.readouterr().out

    def test_weights_file_baseline(self, tmp_path, capsys):
        from repro.network.topology_isp import isp_topology

        num_links = isp_topology().num_links
        weights_file = tmp_path / "w.json"
        weights_file.write_text(json.dumps([5] * num_links))
        code = main(
            ["whatif", *self.ARGS, "--weights", str(weights_file),
             "--link", "0", "--new-weight", "9"]
        )
        assert code == 0
        assert "link 0: 5 -> 9" in capsys.readouterr().out

    def test_query_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["whatif", *self.ARGS, "--link", "1", "--traffic-scale", "2.0"])

    def test_link_flags_rejected_on_other_queries(self, capsys):
        code = main(["whatif", *self.ARGS, "--failure", "0", "4", "--new-weight", "9"])
        assert code == 2
        assert "--new-weight" in capsys.readouterr().err
        code = main(
            ["whatif", *self.ARGS, "--traffic-scale", "1.2", "--apply-to", "low"]
        )
        assert code == 2
        assert "--apply-to" in capsys.readouterr().err

    def test_bad_inputs_exit_cleanly(self, capsys):
        code = main(["whatif", *self.ARGS, "--link", "9999", "--new-weight", "5"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        code = main(["whatif", *self.ARGS, "--failure", "0", "99"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        code = main(["whatif", *self.ARGS, "--traffic-scale", "-1"])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, message",
        (
            (["--traffic-scale", "nan"], "traffic scale factor must be finite"),
            (["--traffic-scale", "inf"], "traffic scale factor must be finite"),
            (["--scenario", "scale:nan"], "scale factor must be finite"),
            (["--scenario", "surge:3xinf"], "surge factor must be finite"),
            (["--traffic-scale", "1e308"], "traffic scale factor must keep traffic finite"),
            (["--scenario", "scale:1e308"], "scale factor must keep traffic finite"),
            (["--scenario", "surge:3x1e308"], "surge factor must keep traffic finite"),
        ),
    )
    def test_non_finite_factors_exit_2_naming_the_factor(self, capsys, query, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["whatif", *self.ARGS, *query])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_malformed_weights_file_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps([1, 2, 3]))  # wrong length
        code = main(
            ["whatif", *self.ARGS, "--weights", str(bad),
             "--link", "0", "--new-weight", "9"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestScenarioWhatif:
    """CLI paths of the composable ``whatif --scenario`` queries."""

    ARGS = ["--topology", "isp", "--utilization", "0.5", "--seed", "2"]

    def test_scenario_query(self, capsys):
        code = main(["whatif", *self.ARGS, "--scenario", "node:3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "what-if [scenario]" in printed
        assert "node failure 3" in printed

    def test_composed_scenario_query(self, capsys):
        code = main(
            ["whatif", *self.ARGS, "--scenario", "link:0-4+surge:3x2.0"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "link failure 0-4" in printed
        assert "hot-spot surge at node 3" in printed

    def test_disconnecting_scenario_reports_lost_demand(self, capsys):
        # Failing a node cuts all of its demand; the result surfaces the
        # unroutable volume instead of erroring or dropping it silently.
        code = main(["whatif", *self.ARGS, "--scenario", "node:0"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "disconnected:" in printed
        assert "unroutable" in printed

    def test_unknown_scenario_kind_exits_2_with_listing(self, capsys):
        """Mirrors the strategy registry: unknown kind -> exit 2 + choices."""
        code = main(["whatif", *self.ARGS, "--scenario", "warp:3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "warp" in err
        for kind in ("link", "node", "srlg", "scale", "surge", "shift"):
            assert kind in err

    def test_malformed_scenario_arg_exits_2_with_syntax(self, capsys):
        code = main(["whatif", *self.ARGS, "--scenario", "surge:3"])
        assert code == 2
        assert "NODExFACTOR" in capsys.readouterr().err

    def test_scenario_on_missing_adjacency_exits_2(self, capsys):
        code = main(["whatif", *self.ARGS, "--scenario", "link:0-15"])
        assert code == 2
        assert "no duplex adjacency" in capsys.readouterr().err

    def test_scenario_is_exclusive_with_other_queries(self):
        with pytest.raises(SystemExit):
            main(
                ["whatif", *self.ARGS, "--scenario", "node:3",
                 "--traffic-scale", "1.2"]
            )


class TestCampaignScenarioGrids:
    """CLI error paths of campaign scenario grids (spec validation)."""

    def test_unknown_scenario_kind_exits_2_with_listing(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--out", str(tmp_path / "c"),
             "--scenarios", "warp"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "warp" in err
        assert "link" in err and "node" in err  # the registered listing

    def test_non_enumerable_kind_exits_2(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--out", str(tmp_path / "c"),
             "--scenarios", "shift"]
        )
        assert code == 2
        assert "no sweep grid" in capsys.readouterr().err

    def test_unknown_kind_in_spec_file_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "topologies": ["isp"], "scenario_kinds": ["warp"],
        }))
        code = main(
            ["campaign", "run", "--out", str(tmp_path / "c"),
             "--spec", str(spec)]
        )
        assert code == 2
        assert "warp" in capsys.readouterr().err


class TestSpaceSweepCommand:
    """The `sweep` verb and `campaign run --spaces`: shared exit-2 contract."""

    def test_unknown_space_exits_2_with_registry_listing(self, capsys):
        # Validated before any session build; lists the registered spaces.
        assert main(["sweep", "--topology", "isp", "--space", "space:warp"]) == 2
        err = capsys.readouterr().err
        assert "registered scenario space names" in err
        assert "all-link" in err and "surge-sample" in err

    def test_malformed_space_exits_2_with_syntax_help(self, capsys):
        code = main(["sweep", "--topology", "isp", "--space", "space:all-link-x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad failure size" in err
        assert "syntax" in err

    def test_sweep_prints_streaming_aggregate(self, capsys):
        code = main([
            "sweep", "--topology", "isp", "--utilization", "0.5",
            "--space", "all-link-1",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "space sweep space:all-link-1" in printed
        assert "35 scenarios" in printed
        assert "cvar=" in printed

    def test_no_prune_evaluates_everything(self, capsys):
        code = main([
            "sweep", "--topology", "isp", "--utilization", "0.5",
            "--space", "all-link-1", "--no-prune",
        ])
        assert code == 0
        assert "0 pruned" in capsys.readouterr().out

    def test_campaign_unknown_space_exits_2(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "--out", str(tmp_path / "c"),
            "--spaces", "space:warp",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "registered scenario space names" in err

    def test_campaign_malformed_space_in_spec_file_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "topologies": ["isp"], "scenario_spaces": ["space:all-link-x"],
        }))
        code = main(
            ["campaign", "run", "--out", str(tmp_path / "c"), "--spec", str(spec)]
        )
        assert code == 2
        assert "bad failure size" in capsys.readouterr().err

    def test_campaign_stores_space_aggregates(self, tmp_path, capsys):
        out = tmp_path / "camp"
        code = main([
            "campaign", "run", "--out", str(out), "--topologies", "isp",
            "--utilizations", "0.5", "--seeds", "1", "--scale", "0.02",
            "--spaces", "all-link-1", "--quiet",
        ])
        assert code == 0
        records = list((out / "records").glob("*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        spaces = record["scenario_spaces"]
        assert spaces["spaces"] == ["space:all-link-1"]
        for label in ("str", "dtr"):
            summary = spaces[label]["space:all-link-1"]
            assert summary["scenarios"] == 35
            assert summary["evaluated"] + summary["pruned"] == 35
            assert summary["worst_secondary"] >= summary["mean_secondary"]
            assert summary["degradation_factor"] >= 1.0


class TestCampaignCommand:
    def test_run_status_aggregate(self, tmp_path, capsys):
        out = tmp_path / "camp"
        args = [
            "campaign", "run", "--out", str(out), "--topologies", "isp",
            "--utilizations", "0.5", "--seeds", "1", "--scale", "0.02",
        ]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert "1 executed" in printed
        assert (out / "spec.json").exists()
        assert len(list((out / "records").glob("*.json"))) == 1

        assert main(["campaign", "status", "--out", str(out)]) == 0
        assert "1/1" in capsys.readouterr().out

        agg_json = tmp_path / "agg.json"
        assert main(
            ["campaign", "aggregate", "--out", str(out), "--json", str(agg_json)]
        ) == 0
        printed = capsys.readouterr().out
        assert "R_L" in printed
        assert "points" in json.loads(agg_json.read_text())

    def test_rerun_skips_completed(self, tmp_path, capsys):
        out = tmp_path / "camp"
        args = [
            "campaign", "run", "--out", str(out), "--topologies", "isp",
            "--utilizations", "0.5", "--seeds", "1", "--scale", "0.02", "--quiet",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 already stored, 0 executed" in capsys.readouterr().out

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "topologies": ["isp"], "target_utilizations": [0.5],
            "seeds": [1], "scale": 0.02,
        }))
        out = tmp_path / "camp"
        assert main(
            ["campaign", "run", "--out", str(out), "--spec", str(spec_file), "--quiet"]
        ) == 0
        assert "1 executed" in capsys.readouterr().out


class TestServeAndQuery:
    """The online-service subcommands and the shared exit-2 contract."""

    @pytest.fixture()
    def live_server(self):
        import threading

        from repro.serve import ServeService, SessionSpec, WhatIfServer

        service = ServeService(SessionSpec(topology="isp", utilization=0.5))
        server = WhatIfServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield "http://127.0.0.1:%d" % server.server_address[1]
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_unknown_subcommand_exits_2_with_listing(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "query" in err and "serve" in err and "whatif" in err

    def test_query_malformed_scenario_exits_2_with_registry_listing(self, capsys):
        # Validated locally: exits 2 before any network traffic.
        assert main(["query", "--scenario", "bogus:1"]) == 2
        err = capsys.readouterr().err
        assert "registered scenario kind names" in err
        assert "link" in err and "srlg" in err

    def test_query_bad_syntax_exits_2(self, capsys):
        assert main(["query", "--scenario", "link:zap"]) == 2
        assert "syntax" in capsys.readouterr().err

    def test_query_unknown_sweep_kind_exits_2(self, capsys):
        assert main(["query", "--sweep", "nope"]) == 2
        assert "registered scenario kind names" in capsys.readouterr().err

    def test_query_unenumerable_sweep_kind_exits_2_locally(self, capsys):
        # 'shift' is registered but has no sweep grid; validation stays
        # local (no server involved) and lists the enumerable kinds.
        assert main(["query", "--sweep", "shift"]) == 2
        assert "no sweep grid" in capsys.readouterr().err

    def test_query_unreachable_server_exits_1(self, capsys):
        assert main(
            ["query", "--url", "http://127.0.0.1:1", "--scenario", "node:3"]
        ) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_query_whatif_against_live_server(self, live_server, capsys):
        assert main(
            ["query", "--url", live_server, "--scenario", "node:3"]
        ) == 0
        printed = capsys.readouterr().out
        assert "what-if [scenario] node failure 3" in printed
        assert "cache_hit=False" in printed
        # The repeat is answered from the plan cache.
        assert main(
            ["query", "--url", live_server, "--scenario", "node: 3"]
        ) == 0
        assert "cache_hit=True" in capsys.readouterr().out

    def test_query_sweep_and_metrics_against_live_server(self, live_server, capsys):
        assert main(["query", "--url", live_server, "--sweep", "link"]) == 0
        printed = capsys.readouterr().out
        assert "sweep: 35 scenarios" in printed
        assert "worst max utilization" in printed
        assert main(["query", "--url", live_server, "--metrics"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"pool", "scheduler", "plan_cache"}

    def test_query_unknown_space_exits_2_locally(self, capsys):
        # Validated locally: exits 2 before any network traffic.
        assert main(["query", "--space", "space:warp"]) == 2
        err = capsys.readouterr().err
        assert "registered scenario space names" in err

    def test_query_malformed_space_exits_2_locally(self, capsys):
        assert main(["query", "--space", "space:surge-sample:n=maybe"]) == 2
        assert "syntax" in capsys.readouterr().err

    def test_query_space_against_live_server(self, live_server, capsys):
        code = main(["query", "--url", live_server, "--space", "all-link-1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "space space:all-link-1: 35 scenarios" in printed
        assert "cvar=" in printed
        assert "max_utilization" in printed

    def test_serve_rejects_bad_weights_file(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text("{not json")
        assert main(
            ["serve", "--topology", "isp", "--weights", str(weights)]
        ) == 2
        assert "error" in capsys.readouterr().err
