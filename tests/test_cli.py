from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from stakeloop import data as datamod
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


def _without(market, key):
    """The JSON market object ``market`` without its ``key``."""
    return json.dumps({k: v for k, v in json.loads(market).items() if k != key})


_MARKET_KEYS = ["id", "supplied", "borrowed", "max_ltv", "irm"]


# The files a backtest report holds, in the order they are written.
REPORT_FILES = ["equity_curve.csv", "positions.csv", "summary.json", "summary.csv"]


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

    @pytest.mark.parametrize("command", ["optimize", "rebalance"])
    def test_kkt_tolerance_is_no_flag(self, command, capsys):
        # The certificate is always checked at 1e-8.
        with pytest.raises(SystemExit) as exc:
            main([command, "--budget", "3", "-s", "0.03", "--market", MARKET_A, "--kkt-tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kkt-tol 1e-6" in capsys.readouterr().err

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
    def test_step_rate_path_refused(self, tmp_path, capsys):
        spec = {"markets": [{"market_id": "m", "rate_path": "step"}], "days": 2}
        code, out, err = run(["synth", "--spec", json.dumps(spec), "--out", str(tmp_path / "ds")], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: --spec: SyntheticMarketSpec.__init__() got an unexpected keyword argument 'rate_path'\n"
        )
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize(
        "period, message",
        [
            (0, "period_days must be positive and finite, got 0"),
            (1e-320, "period_days 1e-320 of market m is too short for 2 days: the sine's phase overflows"),
        ],
        ids=["zero", "phase-overflow"],
    )
    def test_period_days_refused(self, period, message, tmp_path, capsys):
        spec = {"markets": [{"market_id": "m", "amplitude": 0.01, "period_days": period}], "days": 2}
        code, out, err = run(["synth", "--spec", json.dumps(spec), "--out", str(tmp_path / "ds")], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "ds").exists()

    def test_days_whose_snapshot_count_overflows_refused(self, tmp_path, capsys):
        spec = {"markets": [{"market_id": "m"}], "days": 1e305}
        code, out, err = run(["synth", "--spec", json.dumps(spec), "--out", str(tmp_path / "ds")], capsys)
        assert (code, out) == (2, "")
        assert err == "error: days 1e+305 is too long for the 3600s cadence: the snapshot count overflows\n"
        assert not (tmp_path / "ds").exists()

    def test_days_above_the_snapshot_bound_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(datamod, "generate_synthetic", lambda *a, **k: pytest.fail("generated"))
        spec = {"markets": [{"market_id": "m"}], "days": 1e9}
        code, out, err = run(["synth", "--spec", json.dumps(spec), "--out", str(tmp_path / "ds")], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: days 1000000000.0 at the 3600s cadence gives 24000000001 snapshots, "
            "more than the bound of 1000000\n"
        )
        assert not (tmp_path / "ds").exists()

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

    def test_frequency_in_seconds_equals_its_hours(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "0", "--out", str(ds)], capsys)
        reports = []
        for frequency in ("3600", "1h"):
            out_dir = tmp_path / frequency
            code, out, _ = run(
                ["--json", "backtest", "--dataset", str(ds), "--budget", "10",
                 "--frequency", frequency, "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            reports.append((out.splitlines()[-1], (out_dir / "positions.csv").read_text()))
        assert reports[0] == reports[1]

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
        assert out.splitlines()[:4] == [f"wrote {report / name}" for name in REPORT_FILES]

    def test_json_stdout_with_report_is_one_document(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        report = tmp_path / "report"
        code, out, err = run(
            ["--json", "backtest", "--dataset", str(ds), "--budget", "5", "--frequency", "1d",
             "--out", str(report)],
            capsys,
        )
        assert code == 0
        summary = json.loads((report / "summary.json").read_text())
        assert json.loads(out) == {k: summary[k] for k in ("apy", "rebalance_count", "total_fees_paid")}
        assert err.splitlines() == [f"wrote {report / name}" for name in REPORT_FILES]


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

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("last", "968111b645a405587f29cdb6ac9a26149d593f78cc64fc2b2049ec576348244e"),
            ("middle", "9e1a83d729131337d38ea44a2101ce1e96a82a6ac4a266dfaf2af65c2e85efb9"),
            ("mixed", "05dfddcc0358fc573a7eaddf7fe186bee1a222d94f002b590d2a7927b8818909"),
        ],
    )
    def test_output_bytes_are_pinned(self, case, digest, tmp_path, capsys):
        # The last snapshot, one in the middle, and one JSON market ahead of
        # the dataset's markets. Any change to a float of the compile from the
        # columns, the solve or its JSON changes these digests.
        from stakeloop.data import load_snapshots

        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "0", "--out", str(ds)], capsys)
        timestamps = load_snapshots(ds).timestamps
        extra = {
            "last": [],
            "middle": ["--at", str(timestamps[len(timestamps) // 2])],
            "mixed": ["--market", json.dumps(
                {"id": "X", "supplied": 300, "borrowed": 240, "max_ltv": 0.945,
                 "irm": {"kind": "kinked", "r_base": 0.0, "r_slope1": 0.03, "r_slope2": 0.5,
                         "u_target": 0.9}}
            )],
        }[case]
        code, out, _ = run(
            ["--json", "optimize", "--dataset", str(ds), "--budget", "20", *extra], capsys
        )
        assert code == 0
        assert json.loads(out)["kkt_passed"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["optimize", "rebalance"])
    def test_builds_no_market_state_or_rate_model(self, command, tmp_path, capsys, monkeypatch):
        from stakeloop.irm import AdaptiveIrmParams

        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "0", "--out", str(ds)], capsys)

        def refused(self, *args):
            pytest.fail(f"--dataset built a {type(self).__name__}")

        for checked in (MarketState, AdaptiveIrmParams):
            monkeypatch.setattr(checked, "__post_init__", refused)
        current = ["--current", '{"exposures": {"core": 0, "alt": 0}, "unleveraged": 20}']
        code, out, _ = run(
            ["--json", command, "--dataset", str(ds), "--budget", "20",
             *(current if command == "rebalance" else [])],
            capsys,
        )
        assert code == 0
        assert set(json.loads(out)["exposures"]) == {"core", "alt"}

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

    def test_budget_flag_changes_nothing(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "1", "--out", str(ds)], capsys)
        outputs = []
        for i, flag in enumerate([[], ["--budget", "7"], ["--budget", "1"]]):
            out_dir = tmp_path / f"curves{i}"
            code, out, _ = run(["sweep", "--dataset", str(ds), "--budgets", "1,100",
                                "--frequency", "1d", "--out", str(out_dir), *flag], capsys)
            assert code == 0
            outputs.append((out, (out_dir / "apy_curve.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        # A --budget given is still checked.
        code, out, err = run(["sweep", "--dataset", str(ds), "--budgets", "1,100",
                              "--budget", "-1"], capsys)
        assert (code, out) == (2, "")
        assert "budget must be positive and finite, got -1.0" in err

    def test_leverage_sweep_prints_and_writes_a_curve_per_cap(self, tmp_path, capsys):
        from stakeloop import backtest
        from stakeloop.data import load_snapshots

        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "1", "--out", str(ds)], capsys)
        out_dir = tmp_path / "curves"
        code, out, _ = run(
            ["sweep", "--dataset", str(ds), "--budget", "1", "--budgets", "1,100",
             "--l-max-list", "2,4.5", "--frequency", "1d", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        cfg = backtest.BacktestConfig(budget=1.0, rebalance_frequency=86400)
        curves = backtest.sweep_leverage(load_snapshots(ds), cfg, [2.0, 4.5], [1.0, 100.0])
        assert out.splitlines() == [
            f"l_max {level:g} budget {budget:.6g} apy {value * 100:.6g}%"
            for level, curve in curves.items()
            for budget, value in curve
        ]
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "lmax_2_curve.csv", "lmax_2_curve.json", "lmax_4.5_curve.csv", "lmax_4.5_curve.json",
        ]
        for level, curve in curves.items():
            written = json.loads((out_dir / f"lmax_{level:g}_curve.json").read_text())
            assert [(row["budget"], row["apy"]) for row in written] == curve
            rows = (out_dir / f"lmax_{level:g}_curve.csv").read_text().splitlines()
            assert rows == ["budget,apy", *(f"{b!r},{a!r}" for b, a in curve)]

    def test_budget_sweep_prints_and_writes_one_curve(self, tmp_path, capsys):
        from stakeloop import backtest
        from stakeloop.data import load_snapshots

        ds = tmp_path / "ds"
        run(["synth", "--scenario", "rate-crossing", "--seed", "1", "--out", str(ds)], capsys)
        out_dir = tmp_path / "curves"
        code, out, _ = run(
            ["sweep", "--dataset", str(ds), "--budgets", "1,100", "--l-max", "4.5",
             "--frequency", "1d", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == ["budget 1 apy 5.45428%", "budget 100 apy 4.11452%"]
        assert sorted(path.name for path in out_dir.iterdir()) == ["apy_curve.csv", "apy_curve.json"]
        cfg = backtest.BacktestConfig(budget=1.0, l_max=4.5, rebalance_frequency=86400)
        curve = backtest.sweep_budgets(load_snapshots(ds), cfg, [1.0, 100.0])
        written = json.loads((out_dir / "apy_curve.json").read_text())
        assert [(row["budget"], row["apy"]) for row in written] == curve
        rows = (out_dir / "apy_curve.csv").read_text().splitlines()
        assert rows == ["budget,apy", *(f"{b!r},{a!r}" for b, a in curve)]

    def test_four_market_sweep_is_the_same_floats_on_every_python(self, tmp_path, capsys):
        # Holdings totals are left folds: the builtin sum rounds this sweep's
        # budget-100 APY differently on Python 3.12 and later.
        markets = [
            {"market_id": mid, "supplied": supplied, "utilization": u, "rate_level": level,
             "amplitude": amplitude, "period_days": period, "noise": 0.002}
            for mid, supplied, u, level, amplitude, period in [
                ("a", 2000, 0.8, 0.029, 0.012, 18),
                ("b", 800, 0.75, 0.031, 0.010, 11),
                ("c", 1500, 0.7, 0.030, 0.008, 7),
                ("d", 600, 0.85, 0.027, 0.006, 5),
            ]
        ]
        spec = json.dumps({"days": 30, "markets": markets})
        ds, out_dir = tmp_path / "ds", tmp_path / "curves"
        assert run(["synth", "--spec", spec, "--seed", "3", "--out", str(ds)], capsys)[0] == 0
        code, _, _ = run(["sweep", "--dataset", str(ds), "--budgets", "1,100,1e4,1e6",
                          "--frequency", "6h", "--out", str(out_dir)], capsys)
        assert code == 0
        curve = json.loads((out_dir / "apy_curve.json").read_text())
        assert [(row["budget"], repr(row["apy"])) for row in curve] == [
            (1.0, "0.06341319791658462"),
            (100.0, "0.043030564820926154"),
            (10000.0, "0.031601017977656465"),
            (1000000.0, "0.03148660295668049"),
        ]

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


class TestFetchCommand:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2_naming_the_flag(self, workers, tmp_path, monkeypatch, capsys):
        from stakeloop import fetch

        def refuse(url, payload):
            pytest.fail(f"requested {url}")

        monkeypatch.setattr(fetch, "http_transport", lambda **_: refuse)
        code, out, err = run(["fetch", "--ids", "a", "--start", "0", "--end", "3600",
                              "--staking-rate", "0.03", "--workers", workers,
                              "--out", str(tmp_path / "ds")], capsys)
        assert (code, out) == (2, "")
        assert f"error: --workers must be at least 1, got {workers}" in err
        assert not (tmp_path / "ds").exists()


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

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"irm": {"kind": "linear"}}, "irm must be a string, got dict"),
            ({"staking_rate": True}, "staking_rate must be a number, got bool"),
            ({"budget": "10"}, "budget must be a number, got str"),
            ({"seed": 1.5}, "seed must be an integer, got float"),
            ({"json": 1}, "json must be a boolean, got int"),
            ({"market": MARKET_A}, "market must be a list, got str"),
            ({"market": [{"id": "A"}]}, "market item must be a string, got dict"),
            ({"gate": "both"}, "gate must be one of net, gross, got 'both'"),
            ({"frequency": 3600}, "frequency must be a string, got int"),
            ({"l_max": None}, "l_max must be a number, got NoneType"),
            ({"budget": 10 ** 400}, "budget must be a number, got an integer too large for a float"),
        ],
        ids=["irm-object", "bool-rate", "string-budget", "float-seed", "int-switch",
             "market-string", "market-object", "gate-choice", "int-duration", "null-cap",
             "huge-budget"],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, config, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--print-config", "optimize", "--budget", "3"])
        assert exc.value.code == 2
        assert f"cannot read --config: {message}" in capsys.readouterr().err

    def test_config_values_of_their_flags_types_accepted(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"staking_rate": None, "json": True, "l_max": 4, "at": None,
                                    "market": [MARKET_A], "gate": "gross", "seed": 3}))
        code, out, _ = run(["--config", str(path), "optimize", "--budget", "3", "-s", "0.03"],
                           capsys)
        assert code == 0
        assert set(json.loads(out)["exposures"]) == {"A"}

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"budget": 3}, ["optimize", "-s", "0.03", "--market", MARKET_A]),
            ({"dataset": "ds", "budgets": "1,10"}, ["sweep"]),
            ({"out": "out"}, ["synth", "--scenario", "volatile"]),
            ({"ids": "a", "start": 0, "end": 1, "out": "out"}, ["fetch"]),
        ],
        ids=["optimize", "sweep", "synth", "fetch"],
    )
    def test_config_supplies_required_flags(self, config, argv, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(["--config", str(path), "--print-config", *argv], capsys)
        assert code == 0
        assert {k: json.loads(out)[k] for k in config} == config
        if argv[0] == "optimize":
            code, out, _ = run(["--json", "--config", str(path), *argv], capsys)
            assert (code, json.loads(out)["exposures"]) == (0, {"A": 3.0})
        # A flag that neither the command line nor the config gives, or that
        # the config gives as null, is still required.
        for key in config:
            for value in ({k: v for k, v in config.items() if k != key}, {**config, key: None}):
                path.write_text(json.dumps(value))
                with pytest.raises(SystemExit) as exc:
                    main(["--config", str(path), "--print-config", *argv])
                assert exc.value.code == 2
                flag = "--" + key.replace("_", "-")
                assert f"the following arguments are required: {flag}" in capsys.readouterr().err

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

    def test_kkt_tolerance_is_no_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kkt_tol": 1e-6}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config), "optimize", "--budget", "3", "-s", "0.03", "--market", MARKET_A])
        assert exc.value.code == 2
        assert "cannot read --config: unknown key(s) kkt_tol" in capsys.readouterr().err

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
            (["optimize", "--market", "{"],
             "--market: neither JSON (Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)) nor a readable file"),
            (["backtest", "--irm", "nope"],
             "--irm: neither JSON (Expecting value: line 1 column 1 (char 0)) nor a readable file"),
            (["optimize", "--market", json.dumps({**json.loads(MARKET_A), "supplied": "100"})],
             "--market: supplied must be a number, got str"),
            (["optimize", "--market", json.dumps({**json.loads(MARKET_A), "id": None})],
             "--market: id must be a string, got NoneType"),
            (["optimize", "--markets", json.dumps([{**json.loads(MARKET_A), "id": 7}])],
             "--markets: id must be a string, got int"),
            (["optimize", "--market",
              json.dumps({**json.loads(MARKET_A), "irm": {**json.loads(MARKET_A)["irm"], "r_base": True}})],
             "--market irm: r_base must be a number, got bool"),
            (["backtest", "--irm", '{"kind": "linear", "r_base": "0.01", "r_slope1": 0.04, "u_target": 0.9}'],
             "--irm: r_base must be a number, got str"),
            (["backtest", "--irm", '{"kind": "quadratic"}'],
             "--irm: unknown rate model kind 'quadratic' (use linear/kinked/adaptive)"),
            (["synth", "--spec", '{"markets": [{"market_id": "a"}], "days": true}'],
             "--spec: days must be a number, got bool"),
            (["synth", "--spec", '{"markets": [{"market_id": "a", "noise": true}]}'],
             "--spec markets: noise must be a number, got bool"),
            (["synth", "--spec", '{"markets": [{"market_id": "a"}], "start": true}'],
             "--spec: start must be an integer, got bool"),
            (["optimize", "--market", json.dumps({**json.loads(MARKET_A), "supplied": 10 ** 400})],
             "--market: supplied must be a number, got an integer too large for a float"),
            (["optimize", "--market",
              json.dumps({**json.loads(MARKET_A), "irm": {**json.loads(MARKET_A)["irm"], "r_base": 10 ** 400}})],
             "--market irm: r_base must be a number, got an integer too large for a float"),
            (["rebalance", "--market", MARKET_A, "--current",
              '{"exposures": {"A": 0}, "unleveraged": 1%s}' % ("0" * 400)],
             "--current: unleveraged must be a number, got an integer too large for a float"),
        ],
        ids=["market", "markets", "market-null-field", "market-bool-field",
             "current-bool-exposure", "market-irm", "current-exposures",
             "irm", "spec", "spec-markets", "market-decode", "irm-decode",
             "market-string-amount", "market-null-id", "markets-number-id",
             "market-irm-bool-field", "irm-string-field", "irm-unknown-kind",
             "spec-bool-days", "spec-bool-noise", "spec-bool-start",
             "market-huge-amount", "market-irm-huge-field", "current-huge-amount"],
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
        assert not (tmp_path / "out").exists()

    def test_long_literals_are_parsed_and_files_read(self, tmp_path, capsys):
        # Literals longer than a file name may be are JSON, not paths; every
        # JSON flag also reads a file.
        markets = [{**json.loads(MARKET_A), "id": mid} for mid in ("A", "B", "C")]
        literal = json.dumps(markets)
        current = json.dumps(
            {"exposures": {"A": 0.0, "B": 0.0, "C": 0.0}, "unleveraged": 3.0, "note": "x" * 300}
        )
        assert len(literal) > 255 and len(current) > 255
        base = ["--json", "rebalance", "--budget", "3", "-s", "0.03"]
        code, from_literals, _ = run([*base, "--markets", literal, "--current", current], capsys)
        assert code == 0
        paths = {}
        for name, text in [("markets", literal), ("current", current),
                           *((f"m{i}", json.dumps(m)) for i, m in enumerate(markets))]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        code, from_files, _ = run(
            [*base, *(f for i in range(3) for f in ("--market", str(paths[f"m{i}"]))),
             "--current", str(paths["current"])],
            capsys,
        )
        assert code == 0
        assert from_files == from_literals
        code, from_file, _ = run([*base, "--markets", str(paths["markets"]),
                                  "--current", current], capsys)
        assert (code, from_file) == (0, from_literals)

    def test_irm_file_is_read(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "positive-carry", "--seed", "1", "--out", str(ds)], capsys)
        irm = tmp_path / "irm.json"
        irm.write_text(json.dumps(json.loads(MARKET_A)["irm"]))
        runs = [
            run(["--json", "backtest", "--dataset", str(ds), "--budget", "1", "--irm", text], capsys)
            for text in (str(irm), irm.read_text())
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


def _rate_crossing(directory, days, targets=True):
    """A rate-crossing dataset of ``days``, with or without its rate-at-target columns."""
    from dataclasses import replace

    from stakeloop.data import generate_synthetic, save_snapshots, scenario

    series, manifest = generate_synthetic(replace(scenario("rate-crossing"), days=days), seed=0)
    if not targets:
        series = replace(series, rate_at_target=(None,) * len(series.markets))
    save_snapshots(series, manifest, directory)
    return directory


class TestFirstErrors:
    """The replays and the commands check the same inputs in one order, so
    each gives the same first error."""

    @pytest.mark.parametrize(
        "days, targets, flags, message",
        [
            (1.0, True, ["--frequency", "1d", "--smoothing", "1800"],
             "window 1800s is shorter than the data cadence 3600s"),
            (1.0, False, ["--frequency", "1d"], "series must cover at least two rebalance intervals"),
            (3.0, True, ["--frequency", "1800"],
             "rebalance frequency 1800s is below the data cadence 3600s"),
            (3.0, False, [],
             "market core has no rate_at_target and no fallback rate model is configured"),
            (3.0, True, ["--l-max", "30"],
             "l_max=30.0 outside (1, 18.1818] allowed by max_ltv=0.945 of market core"),
        ],
        ids=["window-before-span", "span-before-curves", "frequency", "curves", "cap"],
    )
    def test_replays_and_commands_agree(self, days, targets, flags, message, tmp_path, capsys):
        from stakeloop import backtest
        from stakeloop.cli import _config_from_args, build_parser
        from stakeloop.data import load_snapshots
        from stakeloop.errors import StakeloopError

        ds = _rate_crossing(tmp_path / "ds", days, targets)
        series = load_snapshots(ds)
        cfg = _config_from_args(
            build_parser().parse_args(["backtest", "--dataset", str(ds), "--budget", "1", *flags])
        )
        for replay in (
            lambda: backtest.run_backtest(series, cfg),
            lambda: backtest.sweep_budgets(series, cfg, [1.0, 100.0]),
            lambda: backtest.sweep_leverage(series, cfg, [cfg.l_max, 2.0], [1.0, 100.0]),
        ):
            with pytest.raises(StakeloopError) as exc:
                replay()
            assert str(exc.value) == message
        for command in (["backtest", "--budget", "1"], ["sweep", "--budgets", "1,100"]):
            assert run([*command, "--dataset", str(ds), *flags], capsys) == (2, "", f"error: {message}\n")


class TestInputContract:
    """Inputs off the happy path exit 2 with a message naming the flag or
    the file, never 1 with an internal error."""

    SUBNORMAL = {
        "id": "a",
        "supplied": 5e-324,
        "borrowed": 0.0,
        "max_ltv": 0.9,
        "irm": {"kind": "adaptive", "rate_at_target": 0.03, "curve_steepness": 4.0,
                "u_target": 0.9, "adjustment_speed": 50.0},
    }

    def test_subnormal_pool_of_a_flag(self, capsys):
        code, out, err = run(
            ["optimize", "--market", json.dumps(self.SUBNORMAL), "-s", "0.03", "--budget", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: --market: supplied 5e-324 of market a is too small to price its rate curve\n"

    @pytest.mark.parametrize(
        "command", [["backtest", "--budget", "1"], ["sweep", "--budgets", "1,100"]], ids=["backtest", "sweep"]
    )
    def test_subnormal_pool_in_a_dataset(self, command, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        path = ds / "market_core.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[1:3] = ["5e-324", "0.0"]
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run([*command, "--dataset", str(ds)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: supplied 5e-324 of market core is too small to price its rate curve\n"

    @pytest.mark.parametrize(
        "edit, key, kind",
        [
            (lambda raw: raw["markets"][0].update(lltv="0.945"), "lltv", "a number, got str"),
            (lambda raw: raw["markets"][0].update(id=7), "id", "a string, got int"),
            (lambda raw: raw["markets"][0].update(creation_date=0), "creation_date", "a string, got int"),
            (lambda raw: raw.update(chain=None), "chain", "a string, got NoneType"),
            (lambda raw: raw.update(cadence_seconds=True), "cadence_seconds", "an integer, got bool"),
            (lambda raw: raw.update(schema_version=True), "schema_version", "an integer, got bool"),
        ],
        ids=["lltv", "id", "creation-date", "chain", "cadence", "schema-version"],
    )
    def test_manifest_value_of_the_wrong_type(self, edit, key, kind, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        manifest = ds / "manifest.json"
        raw = json.loads(manifest.read_text())
        edit(raw)
        manifest.write_text(json.dumps(raw))
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {manifest}: {key} must be {kind}\n"

    @pytest.mark.parametrize("name", ["manifest.json", "staking.csv"])
    def test_dataset_file_that_is_not_utf8(self, name, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        (ds / name).write_bytes((ds / name).read_bytes() + b"\xff")
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {ds / name}: not UTF-8 text (")

    def test_json_files_that_are_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"budget": 1}\xff')
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad), "optimize", "--market", MARKET_A, "-s", "0.03"])
        assert exc.value.code == 2
        assert "cannot read --config: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        code, out, err = run(["optimize", "--market", str(bad), "-s", "0.03", "--budget", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --market: invalid JSON in {bad} ('utf-8' codec can't decode byte 0xff")


class TestTinyScales:
    """Every tolerance scales with the quantity it bounds, so a pool or a
    budget far below one unit is solved and certified as a large one is."""

    LINEAR = {"kind": "linear", "r_base": 0.01, "r_slope1": 0.01, "u_target": 0.9}
    ADAPTIVE = {"kind": "adaptive", "rate_at_target": 0.02, "curve_steepness": 4.0,
                "u_target": 0.9, "adjustment_speed": 50.0}

    @pytest.mark.parametrize(
        "supplied, irm", [(1e-12, LINEAR), (1e-9, LINEAR), (1e-300, ADAPTIVE)],
        ids=["linear-1e-12", "linear-1e-9", "adaptive-1e-300"],
    )
    def test_market_with_a_tiny_pool_is_certified(self, supplied, irm, capsys):
        market = {"id": "m", "supplied": supplied, "borrowed": 0.0, "max_ltv": 0.9, "irm": irm}
        code, out, _ = run(["optimize", "-s", "0.03", "--budget", "1", "--market", json.dumps(market)], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "kkt             pass (tol 1e-08)"

    def test_tiny_budgets_earn_one_apy(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "volatile", "--seed", "0", "--out", str(ds)], capsys)
        code, out, _ = run(
            ["sweep", "--dataset", str(ds), "--budgets", "1e-300,1e-30,1e-12", "--frequency", "1d"], capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "budget 1e-300 apy 3.89169%",
            "budget 1e-30 apy 3.89169%",
            "budget 1e-12 apy 3.89169%",
        ]

    def test_subnormal_budget_refused_by_replays_kept_by_optimize(self, tmp_path, capsys):
        # Each step's growth is below one ulp of a subnormal equity, which
        # would never grow: a replay refuses the budget rather than report 0%.
        ds = tmp_path / "ds"
        run(["synth", "--scenario", "volatile", "--seed", "0", "--out", str(ds)], capsys)
        refused = "error: budget 1e-320 is below 2.2250738585072014e-308, the smallest normal float\n"
        for argv in (
            ["--json", "backtest", "--dataset", str(ds), "--budget", "1e-320"],
            ["sweep", "--dataset", str(ds), "--budgets", "1e-320,1e-300", "--frequency", "1d"],
            ["sweep", "--dataset", str(ds), "--budget", "1", "--budgets", "1,1e-320", "--frequency", "1d"],
        ):
            assert run(argv, capsys) == (2, "", refused), argv
        # A single solve keeps such a budget, and certifies it.
        code, out, _ = run(["--json", "optimize", "--dataset", str(ds), "--budget", "1e-320"], capsys)
        assert code == 0
        assert _strict_json(out)["kkt_passed"] is True


def _strict_json(text):
    """JSON as the standard defines it: no Infinity and no NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStakingRateOverflow:
    """A staking rate whose cash flow overflows a float is refused, not
    printed as Infinity or NaN."""

    REBALANCE = ["--current", '{"exposures": {"A": 1}, "unleveraged": 2}', "--gamma-plus", "0.01"]

    @pytest.mark.parametrize("command", [["optimize"], ["rebalance", *REBALANCE]], ids=["optimize", "rebalance"])
    def test_overflowing_staking_rate_exits_2(self, command, capsys):
        code, out, err = run(["--json", *command, "-s", "1e308", "--budget", "3", "--market", MARKET_A], capsys)
        assert (code, out) == (2, "")
        assert err == "error: staking_rate 1e+308 overflows the cash flow of budget 3.0 at l_max 5.0\n"

    def test_large_finite_cash_flow_is_solved_and_certified(self, capsys):
        code, out, _ = run(["--json", "optimize", "-s", "1e300", "--budget", "3", "--market", MARKET_A], capsys)
        assert code == 0
        payload = _strict_json(out)
        assert payload["kkt_passed"] is True
        assert math.isfinite(payload["expected_yield"])
        code, out, _ = run(
            ["--json", "rebalance", *self.REBALANCE, "-s", "1e300", "--budget", "3", "--market", MARKET_A],
            capsys,
        )
        assert code == 0
        assert math.isfinite(_strict_json(out)["net_gain_rate"])


class TestParseErrorsNameTheFlag:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["backtest", "--budget", "1", "--frequency", "1.5"],
             "--frequency: '1.5' is not a duration (use 1h, 1d, or whole seconds)"),
            (["backtest", "--budget", "1", "--frequency", "h"],
             "--frequency: 'h' is not a duration (use 1h, 1d, or whole seconds)"),
            (["backtest", "--budget", "1", "--frequency", "infh"], "--frequency: duration infh is not finite"),
            (["backtest", "--budget", "1", "--smoothing", "x"],
             "--smoothing: 'x' is not a duration (use 1h, 1d, or whole seconds)"),
            (["sweep", "--budgets", "abc"], "--budgets: could not convert string to float: 'abc'"),
            (["sweep", "--budgets", ","], "--budgets: empty list"),
            (["sweep", "--budgets", "1", "--l-max-list", "3,x"],
             "--l-max-list: could not convert string to float: 'x'"),
        ],
        ids=["frequency-fraction", "frequency-unit-only", "frequency-inf", "smoothing", "budgets",
             "budgets-empty", "l-max-list"],
    )
    def test_exits_2_naming_the_flag(self, argv, message, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        assert run([*argv, "--dataset", str(ds)], capsys) == (2, "", f"error: {message}\n")


class TestRefusals:
    """Refusals of the commands, each pinned with its text."""

    def test_market_files_on_different_grids(self, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        path = ds / "market_alt.csv"
        lines = path.read_text().splitlines()
        lines[-1] = ",".join([str(int(lines[-1].split(",")[0]) + 1), *lines[-1].split(",")[1:]])
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: dataset at {ds} failed validation (1 records)\n"
            f"  {path}: timestamp grid differs from market core\n"
        )

    @pytest.mark.parametrize(
        "edit, where, message",
        [
            # A field over the csv module's limit, and an open quote that
            # swallows the rest of a long file into one field.
            (lambda lines: [*lines[:4], lines[4].replace(",", "," + "1" * 131073, 1), *lines[5:]],
             ":5: ", "field larger than field limit (131072)"),
            (lambda lines: [*lines[:2], lines[2].replace(",", ',"', 1), *lines[3:] * 40],
             ":", "field larger than field limit (131072)"),
            # Before Python 3.11 the csv module refuses a NUL byte; from 3.11
            # it reads the field, which is then not a number.
            (lambda lines: [*lines[:4], lines[4].replace(",", ",1\0", 1), *lines[5:]], ":5: ", ""),
        ],
        ids=["field-over-limit", "open-quote", "nul-byte"],
    )
    def test_market_file_the_csv_module_refuses(self, edit, where, message, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        path = ds / "market_core.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}{where}")
        assert err.endswith(f"{message}\n")

    def test_one_snapshot_dataset(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        spec = {"markets": [{"market_id": "m"}], "days": 1e-9}
        assert run(["synth", "--spec", json.dumps(spec), "--out", str(ds)], capsys)[0] == 0
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out, err) == (2, "", "error: series needs at least two snapshots\n")

    def test_manifest_lltv_out_of_range(self, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        manifest = ds / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["markets"][0]["lltv"] = 1.5
        manifest.write_text(json.dumps(raw))
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out, err) == (2, "", f"error: {manifest}: max_ltv must be in (0, 1), got 1.5\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "-s", "0.03", "--budget", "1"],
             "no markets given (use --markets, --market, or --dataset)"),
            (["synth", "--out", "ds"], "use --scenario or --spec"),
            (["synth", "--spec", '{"markets": [{"market_id": "m"}], "bogus": 1}', "--out", "ds"],
             "--spec: SyntheticSpec.__init__() got an unexpected keyword argument 'bogus'"),
            (["rebalance", "-s", "0.03", "--budget", "3", "--market", MARKET_A, "--current",
              '{"exposures": {"A": 1}, "unleveraged": 2}', "--gamma-plus", "1"],
             "fee rates must be in [0, 1)"),
            *[(["optimize", "-s", "0.03", "--budget", "1", "--market", _without(MARKET_A, key)],
               f"--market: missing key {key!r}") for key in _MARKET_KEYS],
            *[(["optimize", "-s", "0.03", "--budget", "1", "--markets", f"[{_without(MARKET_A, key)}]"],
               f"--markets: missing key {key!r}") for key in _MARKET_KEYS],
            (["rebalance", "-s", "0.03", "--budget", "3", "--market", MARKET_A, "--current",
              '{"unleveraged": 3}'], "--current: missing key 'exposures'"),
            (["rebalance", "-s", "0.03", "--budget", "3", "--market", MARKET_A, "--current",
              '{"exposures": {"A": 1}}'], "--current: missing key 'unleveraged'"),
            (["synth", "--spec", '{"days": 1}', "--out", "ds"], "--spec: missing key 'markets'"),
            (["synth", "--spec", '{"markets": {"m": 1}}', "--out", "ds"], "--spec: markets must be a list, got dict"),
        ],
        ids=["no-markets", "no-synth-source", "synth-spec-field", "fee-rate",
             *[f"market-no-{key}" for key in _MARKET_KEYS], *[f"markets-no-{key}" for key in _MARKET_KEYS],
             "current-no-exposures", "current-no-unleveraged", "spec-no-markets", "spec-markets-not-a-list"],
    )
    def test_command_refused(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv, capsys) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "ds").exists()

    def test_header_only_market_files(self, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        for name in ("market_core.csv", "market_alt.csv"):
            path = ds / name
            path.write_text(path.read_text().splitlines()[0] + "\n")
        code, out, err = run(["backtest", "--dataset", str(ds), "--budget", "1"], capsys)
        assert (code, out, err) == (2, "", f"error: {ds / 'market_core.csv'}: market series is empty\n")

    def test_rate_model_with_an_unknown_field(self, tmp_path, capsys):
        ds = _rate_crossing(tmp_path / "ds", 3.0)
        code, out, err = run(
            ["backtest", "--dataset", str(ds), "--budget", "1", "--irm", '{"kind": "linear", "bogus": 1}'], capsys
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --irm: bad rate model fields for kind 'linear': "
            "LinearIrmParams.__init__() got an unexpected keyword argument 'bogus'\n"
        )
