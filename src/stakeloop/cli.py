"""Command-line interface.

Subcommands: optimize, rebalance, backtest, sweep, fetch, synth.
Exit codes: 0 success, 2 usage or validation problem, 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import replace
from pathlib import Path

from . import backtest as bt
from . import data as datamod
from .allocator import (
    Allocation,
    ProblemInstance,
    solve,
    verify_kkt,
    yield_breakdown,
)
from .errors import DataError, StakeloopError, ValidationError
from .irm import IrmParams, MarketState, _state_form
from .rebalance import HOLD, FeeModel, solve_with_fees
from .units import SECONDS_PER_DAY, SECONDS_PER_HOUR


def _sig(value: float, digits: int = 6) -> str:
    return f"{value:.{digits}g}"


def _parse_duration(text: str) -> int:
    """Durations like 1h, 4h, 1d, or plain seconds."""
    text = text.strip().lower()
    unit = {"h": SECONDS_PER_HOUR, "d": SECONDS_PER_DAY}.get(text[-1:])
    if unit is None:
        return int(text)
    seconds = float(text[:-1]) * unit
    if not math.isfinite(seconds):
        raise DataError(f"duration {text} is not finite")
    return int(seconds)


def _load_json_arg(text: str, flag: str) -> object:
    """The value of a JSON flag: ``text`` parsed as JSON, or else the file it
    names. An error names ``flag``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        literal = exc
    try:
        return json.loads(Path(text).read_text())
    except OSError:
        raise DataError(f"{flag}: neither JSON ({literal}) nor a readable file") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{flag}: invalid JSON in {text} ({exc})") from None


def _object(value: object, flag: str) -> dict:
    """``value`` when it is a JSON object, else a ``DataError`` naming ``flag``."""
    if not isinstance(value, dict):
        raise DataError(f"{flag}: expected a JSON object, got {type(value).__name__}")
    return value


# The Python types of a JSON value of each kind, and its name.
_JSON_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    list: (list, "a list"),
}


def _checked(value: object, kind: type, where: str) -> object:
    """``value`` when it is a JSON value of ``kind``, else a ``DataError``
    naming ``where``. JSON true and false are no numbers, and a number is
    one a float can hold."""
    types, name = _JSON_KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) is not (kind is bool):
        raise DataError(f"{where} must be {name}, got {type(value).__name__}")
    if kind is float:
        datamod._check_float(value, where)
    return value


def _number(raw: dict, key: str, flag: str) -> float:
    return float(_checked(raw[key], float, f"{flag}: {key}"))


def _irm(value: object, flag: str) -> IrmParams:
    """The rate model of a JSON object; an error names ``flag``."""
    raw = _object(value, flag)
    try:
        return datamod.irm_from_dict(raw)
    except StakeloopError as exc:
        raise DataError(f"{flag}: {exc}") from None


def _market_from_json(value: object, flag: str) -> MarketState:
    raw = _object(value, flag)
    return MarketState(
        market_id=_checked(raw["id"], str, f"{flag}: id"),
        supplied=_number(raw, "supplied", flag),
        borrowed=_number(raw, "borrowed", flag),
        max_ltv=_number(raw, "max_ltv", flag),
        irm=_irm(raw["irm"], f"{flag} irm"),
    )


def _problem_from_args(args) -> ProblemInstance:
    """The instance of the markets the flags give, in this order: ``--markets``,
    ``--market``, then the ``--dataset`` snapshot, compiled as the replay does."""
    markets = []
    if args.markets:
        loaded = _load_json_arg(args.markets, "--markets")
        for raw in loaded if isinstance(loaded, list) else [loaded]:
            markets.append(_market_from_json(raw, "--markets"))
    for item in args.market or []:
        markets.append(_market_from_json(_load_json_arg(item, "--market"), "--market"))
    ids = [m.market_id for m in markets]
    forms = [_state_form(m, args.l_max) for m in markets]
    if args.dataset:
        series = datamod.load_snapshots(Path(args.dataset))
        if args.at is not None and args.at not in series.timestamps:
            raise StakeloopError(f"no snapshot at timestamp {args.at}")
        k = -1 if args.at is None else series.timestamps.index(args.at)
        if args.staking_rate is None:
            args.staking_rate = series.staking_rates[k]
        bt._check_curves(series, series.rate_at_target, None)
        ids += series.market_ids
        forms += bt._forms_at(series, k, series.rate_at_target, None, args.l_max)
    if not ids:
        raise StakeloopError("no markets given (use --markets, --market, or --dataset)")
    if args.staking_rate is None:
        raise StakeloopError("--staking-rate is required")
    l_max = (args.l_max,) * len(ids)
    return ProblemInstance(tuple(ids), l_max, args.staking_rate, args.budget, tuple(forms))


def _print_allocation(alloc: Allocation, p: ProblemInstance, args) -> None:
    base, carries = yield_breakdown(alloc, p)
    report = verify_kkt(alloc, p, tol=args.kkt_tol)
    if args.json:
        payload = {
            "regime": alloc.regime,
            "lambda_star": alloc.lambda_star,
            "expected_yield": alloc.expected_yield,
            "unleveraged": alloc.unleveraged,
            "exposures": dict(zip(alloc.market_ids, alloc.exposures)),
            "carry": dict(zip(alloc.market_ids, carries)),
            "kkt_passed": report.passed,
        }
        print(json.dumps(payload, indent=2))
        return
    print(f"regime          {alloc.regime}")
    print(f"lambda*         {_sig(alloc.lambda_star)}")
    print(f"expected yield  {_sig(alloc.expected_yield)} per year")
    print(f"unleveraged     {_sig(alloc.unleveraged)}")
    for mid, x, carry in zip(alloc.market_ids, alloc.exposures, carries):
        note = "" if carry > 0 or x > 0 else "  (carry non-positive)"
        print(f"  {mid}: exposure {_sig(x)}, carry {_sig(carry)}/year{note}")
    print(f"kkt             {'pass' if report.passed else 'FAIL'} (tol {report.tol:g})")


def _cmd_optimize(args) -> int:
    p = _problem_from_args(args)
    _print_allocation(solve(p), p, args)
    return 0


def _cmd_rebalance(args) -> int:
    if args.current is None:
        raise StakeloopError("rebalance requires --current")
    p = _problem_from_args(args)
    plan = solve_with_fees(p, _current_from_args(args, p), _fees_from_args(args))
    if args.json:
        print(
            json.dumps(
                {
                    "direction": plan.direction,
                    "reason": plan.reason,
                    "cost": plan.cost,
                    "net_gain_rate": plan.net_gain_rate,
                    "exposures": dict(zip(plan.target.market_ids, plan.target.exposures)),
                    "unleveraged": plan.target.unleveraged,
                },
                indent=2,
            )
        )
        return 0
    print(f"direction       {plan.direction}")
    if plan.reason:
        print(f"reason          {plan.reason}")
    print(f"cost            {_sig(plan.cost)}")
    print(f"net gain rate   {_sig(plan.net_gain_rate)} per year")
    if plan.direction != HOLD:
        _print_allocation(plan.target, p, args)
    return 0


def _current_from_args(args, p: ProblemInstance) -> Allocation:
    """The holding ``--current`` names: a non-negative amount per market of
    ``p`` and an unleveraged rest, adding up to ``--budget``. The planner does
    not check this, since a replay's rest can go negative as interest accrues."""
    raw = _object(_load_json_arg(args.current, "--current"), "--current")
    exposures = _object(raw["exposures"], "--current exposures")
    stray = sorted(set(exposures).symmetric_difference(p.market_ids))
    if stray:
        raise DataError(f"--current exposures: unknown or missing market ids {stray}")
    values = [_number(exposures, mid, "--current exposures") for mid in p.market_ids]
    current = Allocation.from_position(p.market_ids, values, _number(raw, "unleveraged", "--current"))
    # Written so that NaN fails each test.
    if not all(v >= 0.0 for v in (*values, current.unleveraged)):
        raise DataError("--current: exposures and unleveraged must be non-negative numbers")
    if not abs(current.total - p.budget) <= 1e-9 * max(1.0, p.budget):
        raise DataError(f"--current: exposures and unleveraged total {current.total}, not --budget {p.budget}")
    return current


def _fees_from_args(args) -> FeeModel:
    return FeeModel(args.gamma_plus, args.gamma_minus, args.horizon_days / 365.0)


def _config_from_args(args) -> bt.BacktestConfig:
    irm = _irm(_load_json_arg(args.irm, "--irm"), "--irm") if args.irm else None
    return bt.BacktestConfig(
        budget=args.budget,
        l_max=args.l_max,
        rebalance_frequency=_parse_duration(args.frequency),
        strategy=args.strategy,
        threshold=args.threshold_bps / 1e4,
        fees=_fees_from_args(args),
        smoothing_window=_parse_duration(args.smoothing),
        gate_net_of_costs=args.gate == "net",
        irm=irm,
    )


def _cmd_backtest(args) -> int:
    series = datamod.load_snapshots(Path(args.dataset))
    cfg = _config_from_args(args)
    result = bt.run_backtest(series, cfg)
    if args.out:
        paths = datamod.emit_report(result, Path(args.out))
        for path in paths:
            print(f"wrote {path}")
    summary = (
        f"apy {_sig(result.apy * 100)}% | rebalances {result.rebalance_count} | "
        f"fees {_sig(result.total_fees_paid)}"
    )
    if args.json:
        print(
            json.dumps(
                {
                    "apy": result.apy,
                    "rebalance_count": result.rebalance_count,
                    "total_fees_paid": result.total_fees_paid,
                }
            )
        )
    else:
        print(summary)
    return 0


def _parse_float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise StakeloopError("empty list")
    return values


def _check_labels(levels: list[float]) -> None:
    """Each leverage cap names its own output; two that print alike would
    write one curve over the other."""
    seen: dict[str, float] = {}
    for level in levels:
        label = f"{level:g}"
        if label in seen:
            raise StakeloopError(
                f"--l-max-list: {seen[label]!r} and {level!r} both print as l_max {label}"
            )
        seen[label] = level


def _cmd_sweep(args) -> int:
    budgets = _parse_float_list(args.budgets)
    levels = _parse_float_list(args.l_max_list) if args.l_max_list else []
    _check_labels(levels)
    series = datamod.load_snapshots(Path(args.dataset))
    cfg = _config_from_args(args)
    out = Path(args.out) if args.out else None
    if levels:
        curves = bt.sweep_leverage(series, cfg, levels, budgets)
        for level, curve in curves.items():
            if out:
                datamod.emit_report(curve, out, label=f"lmax_{level:g}")
            for budget, value in curve:
                print(f"l_max {level:g} budget {_sig(budget)} apy {_sig(value * 100)}%")
        return 0
    curve = bt.sweep_budgets(series, cfg, budgets)
    if out:
        datamod.emit_report(curve, out, label="apy")
    for budget, value in curve:
        print(f"budget {_sig(budget)} apy {_sig(value * 100)}%")
    return 0


def _fields(value: object, cls: type, flag: str) -> dict:
    """A JSON object whose every key that names a number or string field of
    dataclass ``cls`` holds a value of that type; other keys are left to ``cls``."""
    raw = _object(value, flag)
    hints = typing.get_type_hints(cls)
    for key, field_value in raw.items():
        if hints.get(key) in (float, int, str):
            _checked(field_value, hints[key], f"{flag}: {key}")
    return raw


def _cmd_synth(args) -> int:
    if args.scenario:
        spec = datamod.scenario(args.scenario)
    elif args.spec:
        raw = _fields(_load_json_arg(args.spec, "--spec"), datamod.SyntheticSpec, "--spec")
        try:
            market = datamod.SyntheticMarketSpec
            markets = tuple(market(**_fields(m, market, "--spec markets")) for m in raw.pop("markets"))
            spec = datamod.SyntheticSpec(markets=markets, **raw)
        except TypeError as exc:  # a field of the wrong name or type
            raise DataError(f"--spec: {exc}") from exc
    else:
        raise StakeloopError("use --scenario or --spec")
    series, manifest = datamod.generate_synthetic(spec, seed=args.seed)
    paths = datamod.save_snapshots(series, manifest, Path(args.out))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_fetch(args) -> int:
    from .fetch import fetch_market_history

    out = fetch_market_history(
        market_ids=[mid for mid in args.ids.split(",") if mid],
        start=args.start,
        end=args.end,
        out_dir=Path(args.out),
        endpoint=args.endpoint,
        staking_endpoint=args.staking_endpoint,
        staking_rate=args.staking_rate,
        api_key=args.api_key,
        chain=args.chain,
        parallelism=args.workers,
    )
    print(f"wrote dataset to {out}")
    return 0


def _add_fee_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma-plus", type=float, default=0.0, help="fee rate on collateral increases")
    parser.add_argument("--gamma-minus", type=float, default=0.0, help="fee rate on collateral decreases")
    parser.add_argument("--horizon-days", type=float, default=1.0, help="holding horizon for fee amortization")


def _add_market_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--markets", help="JSON file or literal with a list of market objects")
    parser.add_argument("--market", action="append", help="inline JSON market object (repeatable)")
    parser.add_argument("--dataset", help="dataset directory to read market state from")
    parser.add_argument("--at", type=int, default=None, help="snapshot timestamp when using --dataset")
    parser.add_argument("--staking-rate", "-s", type=float, default=None)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--l-max", type=float, default=5.0, help="leverage cap per market (default 5)")
    parser.add_argument("--kkt-tol", type=float, default=1e-8)


def _add_backtest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--l-max", type=float, default=5.0)
    parser.add_argument("--frequency", default="1h", help="rebalance frequency (1h, 1d, or seconds)")
    parser.add_argument(
        "--strategy",
        choices=[bt.FIXED_FREQUENCY, bt.DYNAMIC, bt.STAKING_ONLY],
        default=bt.FIXED_FREQUENCY,
    )
    parser.add_argument("--threshold-bps", type=float, default=20.0, help="dynamic strategy gate")
    parser.add_argument("--smoothing", default="1d", help="borrow-rate smoothing window")
    parser.add_argument("--gate", choices=["net", "gross"], default="net",
                        help="compare the dynamic gate net or gross of rebalance costs")
    parser.add_argument("--irm", help="fallback rate model JSON when data lacks rate_at_target")
    _add_fee_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stakeloop",
        description="Optimal capital allocation and backtesting for leveraged staking",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--config", help="JSON file with default flag values")
    parser.add_argument("--print-config", action="store_true", help="dump resolved options and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="one-shot optimal allocation")
    _add_market_flags(opt)
    opt.set_defaults(func=_cmd_optimize)

    reb = sub.add_parser("rebalance", help="fee-aware rebalancing plan from a current position")
    _add_market_flags(reb)
    reb.add_argument("--current", help="JSON with current exposures and unleveraged holding")
    _add_fee_flags(reb)
    reb.set_defaults(func=_cmd_rebalance)

    back = sub.add_parser("backtest", help="replay a strategy over a dataset")
    _add_backtest_flags(back)
    back.add_argument("--out", help="directory for report files")
    back.set_defaults(func=_cmd_backtest)

    sweep = sub.add_parser("sweep", help="APY versus budget (and leverage) curves")
    _add_backtest_flags(sweep)
    sweep.add_argument("--budgets", required=True, help="comma-separated budget list")
    sweep.add_argument("--l-max-list", help="comma-separated leverage caps")
    sweep.add_argument("--out", help="directory for curve files")
    sweep.set_defaults(func=_cmd_sweep)

    synth = sub.add_parser("synth", help="write a deterministic synthetic dataset")
    synth.add_argument("--scenario", choices=datamod.scenario_names())
    synth.add_argument("--spec", help="JSON file or literal with a synthetic spec")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    fetch = sub.add_parser("fetch", help="download market history into a dataset")
    fetch.add_argument("--ids", required=True, help="comma-separated market ids")
    fetch.add_argument("--start", type=int, required=True, help="UTC seconds")
    fetch.add_argument("--end", type=int, required=True, help="UTC seconds")
    fetch.add_argument("--endpoint", default="https://api.morpho.org/graphql")
    fetch.add_argument("--staking-endpoint", help="GraphQL source for daily staking APRs")
    fetch.add_argument("--staking-rate", type=float, help="flat staking rate fallback")
    fetch.add_argument("--api-key")
    fetch.add_argument("--chain", default="ethereum")
    fetch.add_argument("--workers", type=int, default=4)
    fetch.add_argument("--out", required=True)
    fetch.set_defaults(func=_cmd_fetch)
    return parser


def _check_config_value(key: str, value: object, action: argparse.Action) -> None:
    """Refuse a ``--config`` value that the flag of ``action`` could not
    give: a number (no boolean) for a float or int flag, a boolean for a
    switch, a list of strings for a repeatable flag, a string otherwise; null
    for a flag whose default is None. A value must be one of the flag's choices."""
    if value is None and action.default is None:
        return
    if isinstance(action, argparse._AppendAction):  # noqa: SLF001
        for item in _checked(value, list, key):
            _checked(item, str, f"{key} item")
    elif isinstance(action, argparse._StoreTrueAction):  # noqa: SLF001
        _checked(value, bool, key)
    else:
        _checked(value, action.type if action.type in (float, int) else str, key)
    if action.choices is not None and value not in action.choices:
        raise DataError(f"{key} must be one of {', '.join(action.choices)}, got {value!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args_list = list(sys.argv[1:] if argv is None else argv)

    # Config files supply defaults; explicit flags win. A required flag that
    # the config gives counts as given, so --config is read before the parse.
    find_config = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    find_config.add_argument("--config")
    try:
        path = find_config.parse_known_args(args_list)[0].config
    except argparse.ArgumentError:  # the parse below reports it
        path = None
    if path is not None:
        try:
            config = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read --config: {exc}")
        if not isinstance(config, dict):
            parser.error(f"cannot read --config: expected a JSON object, got {type(config).__name__}")
        config = {k.replace("-", "_"): v for k, v in config.items()}
        parsers = [parser]
        for sub_action in parser._subparsers._group_actions:  # noqa: SLF001
            parsers.extend(sub_action.choices.values())
        unknown = set(config)
        # Each parser takes only the keys it knows; a key none knows is an error.
        for each in parsers:
            known = {a.dest: a for a in each._actions if a.dest in config}  # noqa: SLF001
            try:
                for key, action in known.items():
                    _check_config_value(key, config[key], action)
            except DataError as exc:
                parser.error(f"cannot read --config: {exc}")
            each.set_defaults(**{k: config[k] for k in known})
            for key, action in known.items():
                if config[key] is not None:
                    action.required = False
            unknown -= set(known)
        if unknown:
            parser.error(f"cannot read --config: unknown key(s) {', '.join(sorted(unknown))}")
    args = parser.parse_args(args_list)
    if args.print_config:
        resolved = {
            k: v for k, v in vars(args).items() if k not in ("func", "print_config")
        }
        print(json.dumps(resolved, indent=2, default=str))
        return 0
    try:
        return args.func(args)
    except (StakeloopError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            for record in exc.records:
                print(f"  {record}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
