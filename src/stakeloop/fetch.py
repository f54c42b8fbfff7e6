"""Market history fetching over GraphQL.

Pulls hourly pool states (supplied, borrowed, borrow rate, rate at target)
from a lending-protocol API plus a daily staking-rate series, and writes them
in the canonical dataset layout. The HTTP transport is injectable so the
query construction and response handling are testable offline; all primary
functionality of the package runs without this module.

Queried fields (documented mapping):

* market: ``lltv`` (1e18-scaled), ``loanAsset.decimals``, and
  ``historicalState.{supplyAssets,borrowAssets,borrowApy,rateAtTarget}`` as
  hourly point series ``{x: timestamp, y: value}``; asset amounts are
  converted to whole loan-asset units, rates are annual fractions.
* staking: daily ``{timestamp, apr}`` entries, fraction per year.

Values are treated as instantaneous samples at their timestamps.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Sequence

from .backtest import MarketMeta, SnapshotSeries, _optional_column
from .data import DatasetManifest, _warn_back_fill, save_snapshots, staking_rates_at
from .errors import DataError
from .units import SECONDS_PER_DAY, SECONDS_PER_HOUR

MORPHO_API_URL = "https://api.morpho.org/graphql"

# Seconds between the starts of any two requests of one ``http_transport``.
_MIN_INTERVAL = 0.25

Transport = Callable[[str, dict], dict]

_MARKET_QUERY = """
query MarketHistory($id: String!, $options: TimeseriesOptions) {
  market(id: $id) {
    id
    lltv
    creationTimestamp
    loanAsset { decimals }
    historicalState {
      supplyAssets(options: $options) { x y }
      borrowAssets(options: $options) { x y }
      borrowApy(options: $options) { x y }
      rateAtTarget(options: $options) { x y }
    }
  }
}
"""

_STAKING_QUERY = """
query StakingRates($first: Int!, $skip: Int!, $from: BigInt!, $to: BigInt!) {
  totalRewards(first: $first, skip: $skip, orderBy: blockTime, orderDirection: asc,
               where: {blockTime_gte: $from, blockTime_lte: $to}) {
    blockTime
    apr
  }
}
"""


def http_transport(api_key: str | None = None) -> Transport:
    """POST JSON to a GraphQL endpoint and return the decoded body. Each
    request starts at least ``_MIN_INTERVAL`` seconds after the one before."""
    last = float("-inf")

    def post(url: str, payload: dict) -> dict:
        nonlocal last
        delay = last + _MIN_INTERVAL - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        last = time.monotonic()
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            retry_after = exc.headers.get("Retry-After") if exc.headers else None
            hint = f" (retry after {retry_after}s)" if retry_after else ""
            raise DataError(f"HTTP {exc.code} from {url}{hint}") from exc
        except urllib.error.URLError as exc:
            raise DataError(f"cannot reach {url}: {exc.reason}") from exc

    return post


def _run_query(transport: Transport, url: str, query: str, variables: dict) -> dict:
    body = transport(url, {"query": query, "variables": variables})
    if body.get("errors"):
        messages = "; ".join(e.get("message", "?") for e in body["errors"])
        raise DataError(f"GraphQL errors from {url}: {messages}")
    data = body.get("data")
    if data is None:
        raise DataError(f"GraphQL response from {url} has no data")
    return data


def _points_to_map(points: list[dict], scale: float = 1.0) -> dict[int, float]:
    return {int(p["x"]): float(p["y"]) / scale for p in points}


def _fetch_one_market(
    transport: Transport,
    endpoint: str,
    market_id: str,
    start: int,
    end: int,
) -> tuple[MarketMeta, dict[int, tuple[float, float, float, float | None]]]:
    """The market and, per complete hour, its supplied, borrowed, borrow
    rate and rate-at-target (None when not recorded)."""
    supplied: dict[int, float] = {}
    borrowed: dict[int, float] = {}
    rates: dict[int, float] = {}
    targets: dict[int, float] = {}
    lltv = None
    creation = ""

    chunk = 30 * SECONDS_PER_DAY
    cursor = start
    while cursor < end:
        options = {
            "startTimestamp": cursor,
            "endTimestamp": min(cursor + chunk, end),
            "interval": "HOUR",
        }
        data = _run_query(
            transport, endpoint, _MARKET_QUERY, {"id": market_id, "options": options}
        )
        market = data.get("market")
        if market is None:
            raise DataError(f"market {market_id} not found on {endpoint}")
        lltv = float(market["lltv"]) / 1e18
        creation = str(market.get("creationTimestamp", ""))
        decimals = int(market["loanAsset"]["decimals"])
        scale = 10.0**decimals
        hist = market["historicalState"]
        supplied.update(_points_to_map(hist["supplyAssets"], scale))
        borrowed.update(_points_to_map(hist["borrowAssets"], scale))
        rates.update(_points_to_map(hist["borrowApy"]))
        targets.update(_points_to_map(hist.get("rateAtTarget") or []))
        cursor += chunk

    if lltv is None or not supplied:
        raise DataError(f"market {market_id}: no data returned for [{start}, {end})")

    hours = {
        ts: (supplied[ts], min(borrowed[ts], supplied[ts]), rates[ts], targets.get(ts))
        for ts in sorted(supplied)
        if ts in borrowed and ts in rates  # else incomplete; surfaces later as a gap
    }
    return MarketMeta(market_id, lltv, creation), hours


def _fetch_staking(
    transport: Transport, endpoint: str, start: int, end: int
) -> list[tuple[int, float]]:
    page = 1000
    skip = 0
    # The source sends only the rows in [lo, end], the bounds as BigInt
    # decimal strings; each row is checked against the window again.
    lo = start - SECONDS_PER_DAY
    window = {"first": page, "from": str(lo), "to": str(end)}
    out: list[tuple[int, float]] = []
    while True:
        data = _run_query(transport, endpoint, _STAKING_QUERY, {**window, "skip": skip})
        rows = data.get("totalRewards") or []
        for row in rows:
            ts = int(row["blockTime"])
            if lo <= ts <= end:
                out.append((ts, float(row["apr"])))
        if len(rows) < page:
            break
        skip += page
    if not out:
        raise DataError(f"no staking rates in [{start}, {end}] from {endpoint}")
    return sorted(out)


def fetch_market_history(
    market_ids: Sequence[str],
    start: int,
    end: int,
    out_dir: Path,
    endpoint: str = MORPHO_API_URL,
    staking_endpoint: str | None = None,
    staking_rate: float | None = None,
    api_key: str | None = None,
    chain: str = "ethereum",
    transport: Transport | None = None,
) -> Path:
    """Fetch hourly market states plus staking rates and write a dataset.

    Either ``staking_endpoint`` (a GraphQL source of daily APRs) or a flat
    ``staking_rate`` must be given. Re-fetching a closed time range overwrites
    the dataset identically. Returns the dataset directory.
    """
    if not market_ids:
        raise DataError("market id list must not be empty")
    if end <= start:
        raise DataError("end must be after start")
    if staking_endpoint is None and staking_rate is None:
        raise DataError("either staking_endpoint or staking_rate is required")
    post = transport or http_transport(api_key=api_key)
    fetched = [_fetch_one_market(post, endpoint, mid, start, end) for mid in market_ids]

    common = set.intersection(*(set(hours) for _, hours in fetched))
    if not common:
        raise DataError("markets share no common timestamps in the range")
    timestamps = sorted(common)

    if staking_endpoint is not None:
        staking = _fetch_staking(post, staking_endpoint, start, end)
    else:
        staking = [(timestamps[0], float(staking_rate))]

    # Per field, one column per market on the common grid.
    supplied, borrowed, rates, targets = zip(
        *(zip(*(hours[ts] for ts in timestamps)) for _, hours in fetched)
    )
    series = SnapshotSeries(
        markets=tuple(m for m, _ in fetched),
        timestamps=tuple(timestamps),
        staking_rates=tuple(staking_rates_at(timestamps, staking)),
        supplied=supplied,
        borrowed=borrowed,
        borrow_rate=rates,
        rate_at_target=tuple(map(_optional_column, targets)),
    )
    out_dir = Path(out_dir)
    save_snapshots(series, DatasetManifest(chain, SECONDS_PER_HOUR, "fetched"), out_dir)
    _warn_back_fill(out_dir, series.timestamps, staking[0][0])
    return out_dir
