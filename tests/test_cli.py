from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from stakeloop.cli import main
from stakeloop.data import irm_from_dict
from stakeloop.irm import MarketState, market_response

MARKET_A = json.dumps(
    {
        "id": "A",
        "supplied": 100,
        "borrowed": 0,
        "max_ltv": 0.945,
        "irm": {"kind": "linear", "r_base": 0.01, "r_slope1": 0.04, "u_target": 0.9},
    }
)
MARKET_B = json.dumps(
    {
        "id": "B",
        "supplied": 50,
        "borrowed": 0,
        "max_ltv": 0.945,
        "irm": {"kind": "linear", "r_base": 0.02, "r_slope1": 0.04, "u_target": 0.9},
    }
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOptimize:
    def test_two_market_unsaturated(self, capsys):
        code, out, _ = run(
            [
                "optimize",
                "--budget", "3",
                "-s", "0.03",
                "--market", MARKET_A,
                "--market", MARKET_B,
            ],
            capsys,
        )
        assert code == 0
        assert "0.0682222" in out
        assert "unsaturated" in out
        assert "kkt             pass" in out

    def test_saturated_regime_reports_unleveraged(self, capsys):
        code, out, _ = run(
            [
                "--json",
                "optimize",
                "--budget", "10",
                "-s", "0.03",
                "--market", MARKET_A,
                "--market", MARKET_B,
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "saturated"
        assert payload["unleveraged"] == pytest.approx(2.96875)

    def test_negative_carry_notes_pure_staking(self, capsys):
        expensive = json.dumps(
            {
                "id": "E",
                "supplied": 100,
                "borrowed": 0,
                "max_ltv": 0.945,
                "irm": {
                    "kind": "linear",
                    "r_base": 0.09,
                    "r_slope1": 0.04,
                    "u_target": 0.9,
                },
            }
        )
        code, out, _ = run(
            ["optimize", "--budget", "5", "-s", "0.03", "--market", expensive],
            capsys,
        )
        assert code == 0
        assert "carry non-positive" in out

    def test_wide_instance_output_bytes_are_pinned(self, tmp_path, capsys):
        # 200 seeded markets of every rate model, some with near-flat curves
        # that reach their liquidity cap, at half the saturated budget. Any
        # change to a float of the solve, its carry terms, its certificate or
        # the JSON formatting changes this digest.
        rng = random.Random(0)
        raws = []
        for i in range(200):
            supplied = rng.uniform(500.0, 5000.0)
            utilization = rng.uniform(0.3, 0.85)
            kind = rng.choice(["linear", "kinked", "adaptive", "flat"])
            if kind == "linear":
                irm = {"kind": "linear", "r_base": rng.uniform(0.0, 0.01),
                       "r_slope1": rng.uniform(0.01, 0.04), "u_target": rng.uniform(0.8, 0.92)}
            elif kind == "flat":
                irm = {"kind": "linear", "r_base": rng.uniform(0.005, 0.025),
                       "r_slope1": rng.uniform(1e-5, 1e-4), "u_target": rng.uniform(0.8, 0.92)}
            elif kind == "kinked":
                irm = {"kind": "kinked", "r_base": rng.uniform(0.0, 0.005),
                       "r_slope1": rng.uniform(0.01, 0.04), "r_slope2": rng.uniform(0.3, 1.0),
                       "u_target": rng.uniform(0.8, 0.92)}
            else:
                irm = {"kind": "adaptive", "rate_at_target": rng.uniform(0.01, 0.05),
                       "curve_steepness": 4.0, "u_target": 0.9, "adjustment_speed": 50.0,
                       "u_last": utilization}
            raws.append({"id": f"m{i:03d}", "supplied": supplied,
                         "borrowed": supplied * utilization,
                         "max_ltv": rng.uniform(0.86, 0.945), "irm": irm})
        path = tmp_path / "markets.json"
        path.write_text(json.dumps(raws))
        saturated = math.fsum(
            market_response(m, 5.0, 0.03, 0.03)
            for m in (MarketState(r["id"], r["supplied"], r["borrowed"], r["max_ltv"],
                                  irm_from_dict(r["irm"])) for r in raws)
        )
        code, out, _ = run(["--json", "optimize", "--markets", str(path), "-s", "0.03",
                            "--budget", repr(saturated / 2.0)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "unsaturated"
        assert payload["kkt_passed"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "74f75d5593422db2457a1d433f2b96f47a3aeb58a24b79f99a1ed26fef007451"
        )

    def test_missing_staking_rate_is_usage_error(self, capsys):
        code, _, err = run(
            ["optimize", "--budget", "3", "--market", MARKET_A], capsys
        )
        assert code == 2
        assert "staking-rate" in err

    def test_non_finite_budget_exits_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        for budget in ("nan", "inf"):
            for argv in (
                ["--json", "optimize", "--budget", budget, "-s", "0.03", "--market", MARKET_A],
                ["--json", "backtest", "--dataset", str(ds), "--budget", budget],
                ["sweep", "--dataset", str(ds), "--budget", "1", "--budgets", f"1,{budget}"],
            ):
                code, out, err = run(argv, capsys)
                assert code == 2, argv
                assert out == ""
                assert "budget must be positive and finite" in err

    @pytest.mark.parametrize(
        "field",
        [
            {"supplied": math.nan},
            {"irm": {"kind": "linear", "r_base": math.nan, "r_slope1": 0.04, "u_target": 0.9}},
            {"irm": {"kind": "kinked", "r_base": 0.0, "r_slope1": 0.04, "r_slope2": math.inf,
                     "u_target": 0.9}},
            {"irm": {"kind": "adaptive", "rate_at_target": math.nan, "curve_steepness": 4.0,
                     "u_target": 0.9, "adjustment_speed": 50.0}},
        ],
        ids=["supplied", "linear.r_base", "kinked.r_slope2", "adaptive.rate_at_target"],
    )
    def test_non_finite_market_field_exits_2(self, field, capsys):
        market = json.dumps({**json.loads(MARKET_A), **field})
        code, out, err = run(
            ["--json", "optimize", "--budget", "3", "-s", "0.03", "--market", market], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--budget", "3", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma-plus", "0.5", "--horizon-days", "1"],
            ["--current", '{"exposures": {"A": 0.0}, "unleveraged": 3.0}'],
        ],
        ids=["fee", "current"],
    )
    def test_rebalance_flags_refused(self, flags, capsys):
        # Fees and a current position belong to `rebalance`.
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--budget", "3", "-s", "0.03", "--market", MARKET_A, *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("optimize", "rebalance", "backtest", "sweep", "fetch", "synth"):
            assert name in out

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--dataset", "--budget", "--l-max", "--frequency", "--strategy",
                     "--threshold-bps", "--smoothing", "--gate", "--gamma-plus",
                     "--gamma-minus", "--horizon-days"):
            assert flag in out


class TestRebalanceCommand:
    def test_requires_current(self, capsys):
        code, _, err = run(
            ["rebalance", "--budget", "3", "-s", "0.03", "--market", MARKET_A],
            capsys,
        )
        assert code == 2
        assert "current" in err

    def test_plan_printed(self, capsys):
        current = json.dumps({"exposures": {"A": 0.0, "B": 0.0}, "unleveraged": 3.0})
        code, out, _ = run(
            [
                "rebalance",
                "--budget", "3",
                "-s", "0.03",
                "--market", MARKET_A,
                "--market", MARKET_B,
                "--current", current,
                "--gamma-minus", "0.0001",
            ],
            capsys,
        )
        assert code == 0
        assert "direction       increase" in out
        assert "reason" not in out

    def test_hold_prints_its_reason(self, capsys):
        # A punitive exit fee freezes a position the fee-free solve would unwind.
        current = json.dumps({"exposures": {"A": 9.0, "B": 0.5}, "unleveraged": 0.5})
        argv = [
            "rebalance",
            "--budget", "10",
            "-s", "0.03",
            "--market", MARKET_A,
            "--market", MARKET_B,
            "--current", current,
            "--gamma-minus", "0.5",
            "--horizon-days", "1",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "direction       hold\nreason          no_branch\n" in out
        code, out, _ = run(["--json", *argv], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["direction"], payload["reason"]) == ("hold", "no_branch")

    @pytest.mark.parametrize(
        "current, message",
        [
            ({"exposures": {"A": 1.0, "typo": 5.0}, "unleveraged": 2.0}, "unknown or missing market ids ['typo']"),
            ({"exposures": {}, "unleveraged": 3.0}, "unknown or missing market ids ['A']"),
            ({"exposures": {"A": -1.0}, "unleveraged": 4.0}, "non-negative"),
            ({"exposures": {"A": 0.0}, "unleveraged": -1.0}, "non-negative"),
            ({"exposures": {"A": math.nan}, "unleveraged": 3.0}, "non-negative"),
            ({"exposures": {"A": 0.0}, "unleveraged": 1e300}, "not --budget 3.0"),
        ],
        ids=["unknown-id", "missing-id", "negative-exposure", "negative-unleveraged",
             "nan-exposure", "total-off-budget"],
    )
    def test_bad_current_exits_2_naming_it(self, current, message, capsys):
        code, out, err = run(
            ["rebalance", "--budget", "3", "-s", "0.03", "--market", MARKET_A,
             "--current", json.dumps(current)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --current")
        assert message in err

    def test_move_has_an_empty_reason_under_json(self, capsys):
        current = json.dumps({"exposures": {"A": 0.0, "B": 0.0}, "unleveraged": 3.0})
        code, out, _ = run(
            ["--json", "rebalance", "--budget", "3", "-s", "0.03", "--market", MARKET_A,
             "--market", MARKET_B, "--current", current],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["direction"], payload["reason"]) == ("increase", "")


class TestSynthAndBacktest:
    def test_synth_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run(
                ["synth", "--scenario", "positive-carry", "--seed", "7", "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
        files_a = {p.name: p.read_text() for p in sorted(a.iterdir())}
        files_b = {p.name: p.read_text() for p in sorted(b.iterdir())}
        assert files_a == files_b

    def test_staking_only_apy_matches_rate(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        code, out, _ = run(
            [
                "--json",
                "backtest",
                "--dataset", str(ds),
                "--budget", "10",
                "--strategy", "staking_only",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["apy"] == pytest.approx(math.e**0.031 - 1.0, abs=2e-5)

    def test_looping_beats_staking_on_positive_carry(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        _, out_stake, _ = run(
            ["--json", "backtest", "--dataset", str(ds), "--budget", "1",
             "--strategy", "staking_only"],
            capsys,
        )
        _, out_loop, _ = run(
            ["--json", "backtest", "--dataset", str(ds), "--budget", "1",
             "--frequency", "1d"],
            capsys,
        )
        stake = json.loads(out_stake.splitlines()[-1])["apy"]
        loop = json.loads(out_loop.splitlines()[-1])["apy"]
        assert loop > stake

    def test_dynamic_strategy_flag(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "volatile", "--seed", "2", "--out", str(ds)], capsys)
        code, out, _ = run(
            [
                "--json",
                "backtest",
                "--dataset", str(ds),
                "--budget", "5",
                "--strategy", "dynamic",
                "--threshold-bps", "20",
                "--gamma-minus", "0.0001",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert "apy" in payload

    def test_non_finite_threshold_exits_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        code, out, err = run(
            ["backtest", "--dataset", str(ds), "--budget", "1", "--strategy", "dynamic",
             "--threshold-bps", "nan"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "threshold must be non-negative and finite" in err

    def test_short_staking_row_exits_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        staking = ds / "staking.csv"
        lines = staking.read_text().splitlines()
        lines[3] = lines[3].split(",")[0]
        staking.write_text("\n".join(lines) + "\n")
        code, _, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert code == 2
        assert err.splitlines() == [f"error: {staking}:4: expected 2 fields, got 1"]

    def test_validation_records_printed(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        market_csv = sorted(ds.glob("market_*.csv"))[0]
        lines = market_csv.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = "-0.01"  # borrow_rate
        lines[1] = ",".join(fields)
        market_csv.write_text("\n".join(lines) + "\n")
        code, _, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert code == 2
        assert err.splitlines() == [
            f"error: dataset at {ds} failed validation (1 records)",
            f"  {market_csv}:2: negative rate",
        ]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: [raw],
            lambda raw: {**raw, "markets": {"id": "core"}},
            lambda raw: {**raw, "markets": [{**raw["markets"][0], "lltv": "high"}]},
            lambda raw: {**raw, "cadence_seconds": "hourly"},
            lambda raw: {**raw, "cadence_seconds": 0},
            lambda raw: {**raw, "cadence_seconds": -5},
        ],
        ids=["array", "markets-object", "lltv-text", "cadence-text", "cadence-0", "cadence-neg"],
    )
    def test_malformed_manifest_exits_2_naming_it(self, mutate, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        manifest = ds / "manifest.json"
        manifest.write_text(json.dumps(mutate(json.loads(manifest.read_text()))))
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {manifest}: ")

    def test_report_files_written(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        report = tmp_path / "report"
        code, out, _ = run(
            [
                "backtest",
                "--dataset", str(ds),
                "--budget", "5",
                "--frequency", "1d",
                "--out", str(report),
            ],
            capsys,
        )
        assert code == 0
        assert (report / "summary.json").exists()
        assert (report / "equity_curve.csv").exists()


    @pytest.mark.parametrize("market_id", ["../escaped", "a\\b", ""])
    def test_market_id_that_is_no_file_name_exits_2_writing_nothing(
        self, market_id, tmp_path, capsys
    ):
        out = tmp_path / "ds"
        spec = json.dumps({"markets": [{"market_id": market_id}], "days": 2})
        code, _, err = run(["synth", "--spec", spec, "--out", str(out)], capsys)
        assert code == 2
        assert f"market id {market_id!r}" in err
        assert not out.exists()


class TestOptimizeFromDataset:
    def test_uses_snapshot_markets_and_staking_rate(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        code, out, _ = run(
            ["--json", "optimize", "--dataset", str(ds), "--budget", "100"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["exposures"]) == {"core", "alt"}
        assert payload["kkt_passed"]

    def test_at_timestamp_selection(self, tmp_path, capsys):
        from stakeloop.data import load_snapshots

        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        ts = load_snapshots(ds).snapshots[10].timestamp
        code, _, _ = run(
            ["optimize", "--dataset", str(ds), "--at", str(ts), "--budget", "100"],
            capsys,
        )
        assert code == 0
        code, _, err = run(
            ["optimize", "--dataset", str(ds), "--at", "123", "--budget", "100"],
            capsys,
        )
        assert code == 2
        assert "no snapshot" in err

    def test_market_without_rate_at_target_exits_2_naming_it(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        path = ds / "market_alt.csv"
        rows = [line.rsplit(",", 1)[0] + "," for line in path.read_text().splitlines()[1:]]
        header = "timestamp,supplied,borrowed,borrow_rate,rate_at_target"
        path.write_text("\n".join([header, *rows]) + "\n")
        code, _, err = run(["optimize", "--dataset", str(ds), "--budget", "100"], capsys)
        assert code == 2
        assert "market alt has no rate_at_target" in err


class TestSweepCommand:
    def test_budget_sweep_nonincreasing(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "1", "--out", str(ds)], capsys)
        out_dir = tmp_path / "curves"
        code, out, _ = run(
            [
                "sweep",
                "--dataset", str(ds),
                "--budget", "1",
                "--budgets", "1,100,10000",
                "--frequency", "1d",
                "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        curve = json.loads((out_dir / "apy_curve.json").read_text())
        apys = [row["apy"] for row in curve]
        assert apys == sorted(apys, reverse=True)

    @pytest.mark.parametrize("levels", ["2,2.0000001,16", "2,2"], ids=["alike", "repeated"])
    def test_leverage_caps_that_print_alike_exit_2(self, levels, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        out_dir = tmp_path / "curves"
        code, out, err = run(
            ["sweep", "--dataset", str(ds), "--budget", "1", "--budgets", "1",
             "--l-max-list", levels, "--out", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "both print as l_max 2" in err
        assert not out_dir.exists()

    def test_empty_budget_list_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        code, _, err = run(
            ["sweep", "--dataset", str(ds), "--budget", "1", "--budgets", ""],
            capsys,
        )
        assert code == 2
        assert "empty" in err


class TestConfigHandling:
    def test_print_config(self, capsys):
        code, out, _ = run(
            ["--print-config", "optimize", "--budget", "3", "-s", "0.03",
             "--market", MARKET_A],
            capsys,
        )
        assert code == 0
        resolved = json.loads(out)
        assert resolved["budget"] == 3.0

    def test_config_file_supplies_defaults_flags_win(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 10.0, "staking_rate": 0.03}))
        code, out, _ = run(
            [
                "--json",
                "--config", str(config),
                "optimize",
                "--market", MARKET_A,
                "--market", MARKET_B,
                "--budget", "3",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        # budget flag overrode the config file; staking rate came from it
        assert payload["regime"] == "unsaturated"
        assert payload["lambda_star"] == pytest.approx(0.068222, abs=1e-6)

    @pytest.mark.parametrize(
        "spelling", [["--config=CFG"], ["--conf", "CFG"]], ids=["equals", "abbreviated"]
    )
    def test_config_flag_spellings(self, tmp_path, capsys, spelling):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"staking_rate": 0.03}))
        flag = [part.replace("CFG", str(config)) for part in spelling]
        code, out, _ = run(
            [*flag, "--print-config", "optimize", "--budget", "3"], capsys
        )
        assert code == 0
        assert json.loads(out)["staking_rate"] == 0.03

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config), "--print-config", "optimize", "--budget", "3"])
        assert exc.value.code == 2
        assert "cannot read --config" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"smoothng": "1h", "workers": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config), "--print-config", "sweep",
                  "--dataset", "ds", "--budget", "1", "--budgets", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read --config" in err
        assert "smoothng" in err
        assert "workers" not in err

    def test_config_key_of_another_subcommand_accepted(self, tmp_path, capsys):
        # fetch knows workers; sweep does not, and ignores it.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"smoothing": "1h", "workers": 2}))
        code, out, _ = run(
            ["--config", str(config), "--print-config", "sweep",
             "--dataset", "ds", "--budget", "1", "--budgets", "1"],
            capsys,
        )
        assert code == 0
        resolved = json.loads(out)
        assert resolved["smoothing"] == "1h"
        assert "workers" not in resolved


class TestNonFiniteDurations:
    @pytest.mark.parametrize(
        "argv",
        [
            ["backtest", "--frequency", "infh"],
            ["backtest", "--frequency", "1e400d"],
            ["backtest", "--smoothing", "infd"],
            ["synth", "--spec", '{"markets": [{"market_id": "a"}], "days": Infinity}'],
            ["rebalance", "--market", MARKET_A, "--current",
             '{"exposures": {"A": 0.0}, "unleveraged": 3.0}',
             "--gamma-plus", "0.01", "--horizon-days", "inf"],
        ],
        ids=["frequency-inf", "frequency-overflow", "smoothing-inf", "synth-days", "horizon"],
    )
    def test_exits_2(self, argv, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        required = {
            "backtest": ["--dataset", str(ds), "--budget", "1"],
            "synth": ["--out", str(tmp_path / "out")],
            "rebalance": ["--budget", "3", "-s", "0.03"],
        }
        code, out, err = run(argv + required[argv[0]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestJsonFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "--market", "[1]"], "--market: expected a JSON object, got list"),
            (["optimize", "--markets", "[1]"], "--markets: expected a JSON object, got int"),
            (["optimize", "--market", json.dumps({**json.loads(MARKET_A), "supplied": None})],
             "--market: supplied must be a number, got NoneType"),
            (["optimize", "--market", json.dumps({**json.loads(MARKET_A), "supplied": True})],
             "--market: supplied must be a number, got bool"),
            (["rebalance", "--market", MARKET_A, "--current",
              '{"exposures": {"A": false}, "unleveraged": 3}'],
             "--current exposures: A must be a number, got bool"),
            (["optimize", "--market", json.dumps({**json.loads(MARKET_A), "irm": [1]})],
             "--market irm: expected a JSON object, got list"),
            (["rebalance", "--market", MARKET_A, "--current", '{"exposures": [1], "unleveraged": 3}'],
             "--current exposures: expected a JSON object, got list"),
            (["backtest", "--irm", "[1]"], "--irm: expected a JSON object, got list"),
            (["synth", "--spec", "[1]"], "--spec: expected a JSON object, got list"),
            (["synth", "--spec", '{"markets": [1]}'],
             "--spec markets: expected a JSON object, got int"),
        ],
        ids=["market", "markets", "market-null-field", "market-bool-field",
             "current-bool-exposure", "market-irm", "current-exposures",
             "irm", "spec", "spec-markets"],
    )
    def test_json_of_the_wrong_type_exits_2(self, argv, message, tmp_path, capsys):
        ds = tmp_path / "ds"
        if argv[0] == "backtest":
            run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        required = {
            "optimize": ["--budget", "3", "-s", "0.03"],
            "rebalance": ["--budget", "3", "-s", "0.03"],
            "backtest": ["--dataset", str(ds), "--budget", "1"],
            "synth": ["--out", str(tmp_path / "out")],
        }
        code, out, err = run(argv + required[argv[0]], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]
