from __future__ import annotations

import io
import threading
import urllib.error
import urllib.request
import warnings

import pytest

from stakeloop import fetch
from stakeloop.data import load_manifest, load_snapshots
from stakeloop.errors import DataError, ValidationError
from stakeloop.fetch import fetch_market_history, http_transport
from stakeloop.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

T0 = 1735689600
WAD = 10**18
BACK_FILL = "before the first staking observation"


def _points(start, end, value, step=SECONDS_PER_HOUR, scale=1.0):
    return [
        {"x": ts, "y": value * scale}
        for ts in range(start, end, step)
    ]


def staking_rewards():
    """Daily APRs that change every day, posted at 05:00 so hourly snapshots
    fall before, on and after each observation."""
    return [
        {
            "blockTime": T0 + day * SECONDS_PER_DAY + 5 * SECONDS_PER_HOUR,
            "apr": 0.031 + 0.001 * day,
        }
        for day in range(0, 5)
    ]


class FakeApi:
    """Canned GraphQL backend mimicking the market and staking sources."""

    def __init__(self, known_ids=("mkt-1", "mkt-2")):
        self.known_ids = set(known_ids)
        self.calls = []

    def __call__(self, url, payload):
        self.calls.append((url, payload))
        query = payload["query"]
        variables = payload["variables"]
        if "totalRewards" in query:
            if variables["skip"] > 0:
                return {"data": {"totalRewards": []}}
            # The source's blockTime filter, with BigInt bounds as decimal strings.
            lo, hi = int(variables["from"]), int(variables["to"])
            rows = [r for r in staking_rewards() if lo <= r["blockTime"] <= hi]
            return {"data": {"totalRewards": rows}}
        market_id = variables["id"]
        if market_id not in self.known_ids:
            return {"data": {"market": None}}
        options = variables["options"]
        start, end = options["startTimestamp"], options["endTimestamp"]
        hist = {
            "supplyAssets": _points(start, end, 2000.0, scale=WAD),
            "borrowAssets": _points(start, end, 1500.0, scale=WAD),
            "borrowApy": _points(start, end, 0.02),
            "rateAtTarget": _points(start, end, 0.025),
        }
        return {
            "data": {
                "market": {
                    "id": market_id,
                    "lltv": 0.945 * WAD,
                    "creationTimestamp": 1710000000,
                    "loanAsset": {"decimals": 18},
                    "historicalState": hist,
                }
            }
        }


def half_hour_apart(market_id):
    """A ``FakeApi`` whose ``market_id`` series sit half an hour after the others."""
    api = FakeApi()

    def shifted(url, payload):
        body = api(url, payload)
        if payload["variables"].get("id") == market_id:
            for points in body["data"]["market"]["historicalState"].values():
                for point in points:
                    point["x"] += SECONDS_PER_HOUR // 2
        return body

    return shifted


class TestFetch:
    def test_writes_loadable_dataset(self, tmp_path):
        api = FakeApi()
        with pytest.warns(UserWarning, match=BACK_FILL):
            out = fetch_market_history(
                ["mkt-1", "mkt-2"],
                start=T0,
                end=T0 + 3 * SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=api,
                staking_endpoint="graphql://staking",
            )
            series = load_snapshots(out)
        assert series.market_ids == ("mkt-1", "mkt-2")
        assert len(series.snapshots) == 3 * 24
        snap = series.snapshots[0]
        assert snap.markets["mkt-1"].supplied == pytest.approx(2000.0)
        assert snap.markets["mkt-1"].rate_at_target == pytest.approx(0.025)
        assert snap.staking_rate == pytest.approx(0.031)
        assert series.markets[0].max_ltv == pytest.approx(0.945)
        assert load_manifest(out).source == "fetched"

    def test_staking_rate_is_last_observation_at_or_before(self, tmp_path):
        with pytest.warns(UserWarning, match=BACK_FILL):
            out = fetch_market_history(
                ["mkt-1"],
                start=T0,
                end=T0 + 3 * SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=FakeApi(),
                staking_endpoint="graphql://staking",
            )
            series = load_snapshots(out)
        rewards = staking_rewards()
        for snap in series.snapshots:
            seen = [r["apr"] for r in rewards if r["blockTime"] <= snap.timestamp]
            # before the first observation the first rate applies
            assert snap.staking_rate == (seen[-1] if seen else rewards[0]["apr"])
        assert len({s.staking_rate for s in series.snapshots}) == 3

    def test_refetch_is_idempotent(self, tmp_path):
        api = FakeApi()
        kwargs = dict(
            start=T0,
            end=T0 + SECONDS_PER_DAY,
            transport=api,
            staking_endpoint="graphql://staking",
        )
        with pytest.warns(UserWarning, match=BACK_FILL):
            fetch_market_history(["mkt-1"], out_dir=tmp_path / "ds", **kwargs)
        first = {
            p.name: p.read_text() for p in sorted((tmp_path / "ds").iterdir())
        }
        with pytest.warns(UserWarning, match=BACK_FILL):
            fetch_market_history(["mkt-1"], out_dir=tmp_path / "ds", **kwargs)
        second = {
            p.name: p.read_text() for p in sorted((tmp_path / "ds").iterdir())
        }
        assert first == second

    def test_unknown_market_writes_nothing(self, tmp_path):
        api = FakeApi(known_ids=("mkt-1",))
        with pytest.raises(DataError, match="not found"):
            fetch_market_history(
                ["mkt-unknown"],
                start=T0,
                end=T0 + SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=api,
                staking_endpoint="graphql://staking",
            )
        assert not (tmp_path / "ds").exists()

    def test_empty_pool_rejected_before_writing(self, tmp_path):
        api = FakeApi()

        def empty_first_hour(url, payload):
            body = api(url, payload)
            body["data"]["market"]["historicalState"]["supplyAssets"][0]["y"] = 0.0
            return body

        with pytest.raises(ValidationError) as err:
            fetch_market_history(
                ["mkt-1"],
                start=T0,
                end=T0 + SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=empty_first_hour,
                staking_rate=0.03,
            )
        assert err.value.records == [f"t={T0} market mkt-1: supplied 0.0 must be positive"]
        assert not (tmp_path / "ds").exists()

    def test_graphql_errors_surface(self, tmp_path):
        def broken(url, payload):
            return {"errors": [{"message": "rate limited"}]}

        with pytest.raises(DataError, match="rate limited"):
            fetch_market_history(
                ["mkt-1"],
                start=T0,
                end=T0 + SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=broken,
                staking_endpoint="graphql://staking",
            )

    def test_answer_without_data_or_points_writes_nothing(self, tmp_path):
        api = FakeApi()

        def no_points(url, payload):
            body = api(url, payload)
            if "market" in body["data"]:
                body["data"]["market"]["historicalState"]["supplyAssets"] = []
            return body

        for transport, message in (
            (lambda url, payload: {}, "GraphQL response from graphql://markets has no data"),
            (no_points, f"market mkt-1: no data returned for [{T0}, {T0 + SECONDS_PER_DAY})"),
        ):
            with pytest.raises(DataError) as err:
                fetch_market_history(
                    ["mkt-1"],
                    start=T0,
                    end=T0 + SECONDS_PER_DAY,
                    out_dir=tmp_path / "ds",
                    endpoint="graphql://markets",
                    transport=transport,
                    staking_rate=0.03,
                )
            assert str(err.value) == message
        assert not (tmp_path / "ds").exists()

    def test_staking_pages_until_a_short_page(self, tmp_path):
        # A full page of 1000 daily rows, all but the last four before the
        # window, then a short page: rows of both reach the dataset.
        pages = [
            [{"blockTime": T0 + day * SECONDS_PER_DAY + 5 * SECONDS_PER_HOUR, "apr": 0.03 + 1e-4 * day}
             for day in days]
            for days in (range(-996, 4), range(4, 6))
        ]
        api, skips = FakeApi(), []

        def paged(url, payload):
            if "totalRewards" not in payload["query"]:
                return api(url, payload)
            variables = payload["variables"]
            skips.append(variables["skip"])
            return {"data": {"totalRewards": pages[variables["skip"] // variables["first"]]}}

        out = fetch_market_history(
            ["mkt-1"],
            start=T0,
            end=T0 + 5 * SECONDS_PER_DAY,
            out_dir=tmp_path / "ds",
            transport=paged,
            staking_endpoint="graphql://staking",
        )
        assert skips == [0, 1000]
        rows = pages[0] + pages[1]
        series = load_snapshots(out)
        assert series.staking_rates == tuple(
            [r["apr"] for r in rows if r["blockTime"] <= ts][-1] for ts in series.timestamps
        )
        assert pages[0][-1]["apr"] in series.staking_rates
        assert pages[1][0]["apr"] in series.staking_rates

    def test_staking_query_asks_only_for_the_window(self, tmp_path):
        api = FakeApi()
        start, end = T0 + 2 * SECONDS_PER_DAY, T0 + 3 * SECONDS_PER_DAY
        fetch_market_history(
            ["mkt-1"], start=start, end=end, out_dir=tmp_path / "ds",
            transport=api, staking_endpoint="graphql://staking",
        )
        sent = [p for _, p in api.calls if "totalRewards" in p["query"]]
        assert [p["variables"] for p in sent] == [
            {"first": 1000, "skip": 0, "from": str(start - SECONDS_PER_DAY), "to": str(end)}
        ]
        assert "where: {blockTime_gte: $from, blockTime_lte: $to}" in sent[0]["query"]
        # Rows of days 1 and 2 are in the window: the grid starts after both.
        series = load_snapshots(tmp_path / "ds")
        assert set(series.staking_rates) == {r["apr"] for r in staking_rewards()[1:3]}

    def test_staking_source_required(self, tmp_path):
        with pytest.raises(DataError, match="staking"):
            fetch_market_history(
                ["mkt-1"],
                start=T0,
                end=T0 + SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=FakeApi(),
                staking_rate=None,
                staking_endpoint=None,
            )

    def test_flat_staking_rate_fallback(self, tmp_path):
        api = FakeApi()
        out = fetch_market_history(
            ["mkt-1"],
            start=T0,
            end=T0 + SECONDS_PER_DAY,
            out_dir=tmp_path / "ds",
            transport=api,
            staking_rate=0.05,
        )
        series = load_snapshots(out)
        assert all(s.staking_rate == 0.05 for s in series.snapshots)
        # only market queries went out
        assert all("totalRewards" not in c[1]["query"] for c in api.calls)

    def test_flat_staking_rate_dataset_loads_without_a_warning(self, tmp_path):
        out = fetch_market_history(
            ["mkt-1"],
            start=T0,
            end=T0 + SECONDS_PER_DAY,
            out_dir=tmp_path / "ds",
            transport=FakeApi(),
            staking_rate=0.05,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_snapshots(out)

    def test_staking_that_starts_late_is_back_filled_with_a_warning(self, tmp_path):
        first = T0 + 5 * SECONDS_PER_HOUR
        with pytest.warns(UserWarning) as caught:
            out = fetch_market_history(
                ["mkt-1"],
                start=T0,
                end=T0 + 3 * SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=FakeApi(),
                staking_endpoint="graphql://staking",
            )
        # The text that load_snapshots gives for a back-fill.
        assert [str(w.message) for w in caught] == [
            f"dataset at {out}: 5 snapshot(s) before the first staking observation at {first} take its rate"
        ]

    def test_flat_staking_rate_fetch_gives_no_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fetch_market_history(
                ["mkt-1"],
                start=T0,
                end=T0 + SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=FakeApi(),
                staking_rate=0.05,
            )

    @pytest.mark.parametrize(
        "ids, start, end, transport, message",
        [
            ([], T0, T0 + SECONDS_PER_DAY, FakeApi, "market id list must not be empty"),
            (["mkt-1"], T0, T0, FakeApi, "end must be after start"),
            (["mkt-1"], T0 + 30 * SECONDS_PER_DAY, T0 + 31 * SECONDS_PER_DAY, FakeApi,
             f"no staking rates in [{T0 + 30 * SECONDS_PER_DAY}, {T0 + 31 * SECONDS_PER_DAY}] "
             "from graphql://staking"),
            (["mkt-1", "mkt-2"], T0, T0 + SECONDS_PER_DAY, lambda: half_hour_apart("mkt-2"),
             "markets share no common timestamps in the range"),
        ],
        ids=["no-ids", "empty-range", "no-staking", "no-common-grid"],
    )
    def test_unusable_request_or_answer_writes_nothing(self, ids, start, end, transport, message, tmp_path):
        with pytest.raises(DataError) as err:
            fetch_market_history(
                ids,
                start=start,
                end=end,
                out_dir=tmp_path / "ds",
                transport=transport(),
                staking_endpoint="graphql://staking",
            )
        assert str(err.value) == message
        assert not (tmp_path / "ds").exists()


class TestRequestOrder:
    """One fetch sends its requests one at a time, on the calling thread:
    each market's chunks in the order of the ids, then the staking pages."""

    @staticmethod
    def fetch(tmp_path):
        api, sent = FakeApi(), []

        def recording(url, payload):
            v = payload["variables"]
            request = ("staking", v["skip"]) if "skip" in v else (v["id"], v["options"]["startTimestamp"])
            sent.append((threading.get_ident(), request))
            return api(url, payload)

        with pytest.warns(UserWarning, match=BACK_FILL):
            fetch_market_history(
                ["mkt-2", "mkt-1"],
                start=T0,
                end=T0 + 61 * SECONDS_PER_DAY,
                out_dir=tmp_path / "ds",
                transport=recording,
                staking_endpoint="graphql://staking",
            )
        return sent

    def test_every_request_runs_on_the_calling_thread(self, tmp_path):
        assert {ident for ident, _ in self.fetch(tmp_path)} == {threading.get_ident()}

    def test_requests_come_in_market_order_then_the_staking_pages(self, tmp_path):
        chunks = [T0 + k * 30 * SECONDS_PER_DAY for k in range(3)]
        assert [request for _, request in self.fetch(tmp_path)] == [
            *(("mkt-2", ts) for ts in chunks),
            *(("mkt-1", ts) for ts in chunks),
            ("staking", 0),
        ]


class Answer(io.BytesIO):
    """A ``urlopen`` answer that serves as its own context manager."""

    def __enter__(self):
        return self


class TestHttpTransport:
    """``http_transport``'s request and its error texts, with ``urlopen``
    replaced so that no socket is opened."""

    def test_posts_json_with_the_api_key_and_decodes_the_answer(self, monkeypatch):
        sent = []

        def urlopen(request, timeout):
            sent.append((request, timeout))
            return Answer(b'{"data": {"ok": true}}')

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert http_transport(api_key="k")("graphql://api", {"query": "q"}) == {"data": {"ok": True}}
        (request, timeout), = sent
        assert (request.full_url, request.data, timeout) == ("graphql://api", b'{"query": "q"}', 30.0)
        assert request.get_header("Authorization") == "Bearer k"
        assert request.get_header("Content-type") == "application/json"

    def test_request_starts_are_spaced_by_the_minimum_interval(self, monkeypatch):
        class Clock:
            """Fake ``time``: ``sleep`` moves ``now`` on and is recorded."""

            def __init__(self):
                self.now, self.sleeps = 1000.0, []

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.sleeps.append(seconds)
                self.now += seconds

        clock, starts = Clock(), []

        def urlopen(request, timeout):
            starts.append(clock.now)
            return Answer(b'{"data": {}}')

        monkeypatch.setattr(fetch, "time", clock)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        post = http_transport()
        for _ in range(3):
            post("graphql://api", {"query": "q"})
        assert starts == [1000.0, 1000.25, 1000.5]
        assert clock.sleeps == [0.25, 0.25]
        clock.now += 1.0
        post("graphql://api", {"query": "q"})
        assert starts[-1] == 1001.5
        assert clock.sleeps == [0.25, 0.25]

    @pytest.mark.parametrize(
        "error, message",
        [
            (urllib.error.HTTPError("graphql://api", 429, "Too Many Requests", {"Retry-After": "5"}, None),
             "HTTP 429 from graphql://api (retry after 5s)"),
            (urllib.error.HTTPError("graphql://api", 502, "Bad Gateway", {}, None),
             "HTTP 502 from graphql://api"),
            (urllib.error.URLError("Name or service not known"),
             "cannot reach graphql://api: Name or service not known"),
        ],
        ids=["429-retry-after", "502", "unreachable"],
    )
    def test_request_failure_is_a_data_error_with_its_text(self, error, message, monkeypatch):
        def urlopen(request, timeout):
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(DataError) as err:
            http_transport()("graphql://api", {"query": "q"})
        assert str(err.value) == message
