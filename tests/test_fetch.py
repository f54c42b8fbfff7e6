from __future__ import annotations

import io
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


@pytest.fixture(autouse=True)
def no_request_spacing(monkeypatch):
    """The fake backends answer at once; no request waits for the last."""
    monkeypatch.setattr(fetch, "_MIN_INTERVAL", 0.0)


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
            return {"data": {"totalRewards": staking_rewards()}}
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
        out = fetch_market_history(
            ["mkt-1"],
            start=T0,
            end=T0 + 3 * SECONDS_PER_DAY,
            out_dir=tmp_path / "ds",
            transport=FakeApi(),
            staking_endpoint="graphql://staking",
        )
        rewards = staking_rewards()
        series = load_snapshots(out)
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
        fetch_market_history(["mkt-1"], out_dir=tmp_path / "ds", **kwargs)
        first = {
            p.name: p.read_text() for p in sorted((tmp_path / "ds").iterdir())
        }
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


class TestHttpTransport:
    """``http_transport``'s request and its error texts, with ``urlopen``
    replaced so that no socket is opened."""

    def test_posts_json_with_the_api_key_and_decodes_the_answer(self, monkeypatch):
        sent = []

        class Answer(io.BytesIO):
            def __enter__(self):
                return self

        def urlopen(request, timeout):
            sent.append((request, timeout))
            return Answer(b'{"data": {"ok": true}}')

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert http_transport(api_key="k")("graphql://api", {"query": "q"}) == {"data": {"ok": True}}
        (request, timeout), = sent
        assert (request.full_url, request.data, timeout) == ("graphql://api", b'{"query": "q"}', 30.0)
        assert request.get_header("Authorization") == "Bearer k"
        assert request.get_header("Content-type") == "application/json"

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
