"""Log synchronisation: timestamp conversion, matching, consolidation."""

from collections import Counter
from datetime import datetime, timedelta

import pytest

from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.campaign.tests import TestType
from repro.errors import SyncError
from repro.geo.timezones import Timezone
from repro.store.query import select_columns
from repro.sync.database import ConsolidatedDatabase
from repro.sync.matcher import match_logs
from repro.sync.timestamps import edt_to_utc, local_to_utc, utc_offset_for_mark, utc_to_local
from repro.xcal.export import TRIP_START_UTC, export_logs
from tests import row_oracle

EXPORTED = (TestType.DOWNLINK_THROUGHPUT, TestType.UPLINK_THROUGHPUT, TestType.RTT)


def exported_tests(ds):
    """The tests ``export_logs`` renders, in its file order."""
    return sorted(
        (t for t in ds.tests if t.test_type in EXPORTED and not t.static),
        key=lambda t: (t.start_time_s, t.operator.code),
    )


@pytest.fixture(scope="module")
def log_bundle():
    campaign = DriveCampaign(
        CampaignConfig(seed=21, scale=0.004, include_apps=False, include_static=False)
    )
    ds = campaign.run()
    drms, logs = export_logs(ds, campaign.route)
    return campaign.route, ds, drms, logs


class TestTimestamps:
    def test_edt_to_utc(self):
        edt = datetime(2022, 8, 10, 14, 0, 0)
        assert edt_to_utc(edt) == datetime(2022, 8, 10, 18, 0, 0)

    def test_local_round_trip(self):
        utc = datetime(2022, 8, 10, 18, 0, 0)
        for tz in Timezone:
            assert local_to_utc(utc_to_local(utc, tz), tz) == utc

    def test_pacific_offset(self):
        local = datetime(2022, 8, 10, 11, 0, 0)
        assert local_to_utc(local, Timezone.PACIFIC) == datetime(2022, 8, 10, 18, 0, 0)

    def test_offset_for_mark(self, route):
        assert utc_offset_for_mark(route, 0.0) == -7          # LA
        assert utc_offset_for_mark(route, route.total_length_m) == -4  # Boston


class TestExport:
    def test_one_file_pair_per_test(self, log_bundle):
        _, ds, drms, logs = log_bundle
        exportable = [
            t for t in ds.tests
            if t.test_type in (TestType.DOWNLINK_THROUGHPUT, TestType.UPLINK_THROUGHPUT, TestType.RTT)
            and not t.static
        ]
        assert len(drms) == len(exportable)
        assert len(logs) == len(exportable)

    def test_filenames_unique(self, log_bundle):
        _, _, drms, logs = log_bundle
        assert len({d.filename for d in drms}) == len(drms)
        assert len({l.filename for l in logs}) == len(logs)

    def test_kpi_counts_match_samples(self, log_bundle):
        _, ds, drms, _ = log_bundle
        by_test = row_oracle.samples_by_test(ds)
        tput_drms = [d for d in drms if d.test_label != "rtt"]
        assert any(len(d.kpi_records) == 60 for d in tput_drms)

    def test_max_tests_cap(self, log_bundle):
        route, ds, _, _ = log_bundle
        drms, logs = export_logs(ds, route, max_tests=5)
        assert len(drms) == 5 and len(logs) == 5

    def test_drm_filenames_use_local_time(self, log_bundle):
        """A DRM file's name stamps the test start on the local clock of
        where the vehicle was, one clock per timezone the trip crossed."""
        route, ds, drms, _ = log_bundle
        offsets = set()
        for test, drm in zip(exported_tests(ds), drms):
            offset = utc_offset_for_mark(route, test.start_mark_m)
            local = TRIP_START_UTC + timedelta(seconds=test.start_time_s, hours=offset)
            assert drm.filename.startswith(local.strftime("%Y%m%d_%H%M%S_")), drm.filename
            offsets.add(offset)
        assert offsets == {-7, -6, -5, -4}

    def test_drm_contents_are_edt(self, log_bundle):
        """Every record inside a DRM file is stamped in EDT, whatever the
        local clock of its filename."""
        _, ds, drms, _ = log_bundle
        for test, drm in zip(exported_tests(ds), drms):
            lines = drm.serialize().splitlines()[1:]
            assert lines and all(" EDT|" in line for line in lines)
            start_utc = TRIP_START_UTC + timedelta(seconds=test.start_time_s)
            for record in (*drm.kpi_records, *drm.signaling_records):
                assert timedelta(0) <= edt_to_utc(record.timestamp_edt) - start_utc < timedelta(hours=1)

    def test_one_signalling_pair_per_handover(self, log_bundle):
        """A DRM file logs each of its test's handovers as one ``HO_START``
        and one ``HO_END`` between the same two cells."""
        _, ds, drms, _ = log_bundle
        (ho_tests,) = select_columns(ds, "ho", ("test_id",))
        per_test = Counter(ho_tests.tolist())
        for test, drm in zip(exported_tests(ds), drms):
            starts, ends = (
                sorted((r.from_cell, r.to_cell) for r in drm.signaling_records if r.event == event)
                for event in ("HO_START", "HO_END")
            )
            assert starts == ends
            assert len(starts) == per_test.get(test.test_id, 0)
        assert sum(len(d.signaling_records) for d in drms) > 0


class TestMatcher:
    def test_full_match(self, log_bundle):
        _, _, drms, logs = log_bundle
        pairs = match_logs(drms, logs)
        assert len(pairs) == len(logs)

    def test_matches_are_consistent(self, log_bundle):
        _, _, drms, logs = log_bundle
        for pair in match_logs(drms, logs):
            assert pair.drm.operator is pair.app_log.operator
            assert pair.drm.test_label == pair.app_log.test_label
            assert pair.residual_s < 90.0

    def test_inferred_timezones_span_the_trip(self, log_bundle):
        _, _, drms, logs = log_bundle
        zones = {p.inferred_timezone for p in match_logs(drms, logs)}
        assert len(zones) >= 2  # the trip crossed timezones

    def test_unmatchable_log_raises(self, log_bundle):
        _, _, drms, logs = log_bundle
        orphan = logs[0]
        with pytest.raises(SyncError):
            match_logs([d for d in drms if d.test_label != orphan.test_label][:1], [orphan])


class TestConsolidatedDatabase:
    def test_join_is_complete(self, log_bundle):
        _, _, drms, logs = log_bundle
        db = ConsolidatedDatabase.build(match_logs(drms, logs))
        assert db.match_rate() > 0.95
        assert len(db) > 0

    def test_joined_values_preserved(self, log_bundle):
        _, ds, drms, logs = log_bundle
        db = ConsolidatedDatabase.build(match_logs(drms, logs))
        # DL throughput values in the DB are a subset of dataset values.
        db_values = sorted(db.values(test_label="dl_tput"))
        ds_values = sorted(
            round(s.tput_mbps, 4)
            for s in ds.throughput_samples
            if s.direction == "downlink"
        )
        assert len(db_values) == len(ds_values)
        for a, b in zip(db_values[:50], ds_values[:50]):
            assert a == pytest.approx(b, abs=1e-3)

    def test_empty_database_raises(self):
        db = ConsolidatedDatabase(rows=[], unmatched_app_samples=0)
        with pytest.raises(SyncError):
            db.match_rate()
