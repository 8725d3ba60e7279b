import hashlib

import numpy as np
import pytest

from lru_online.datapipe import (TARGET_COLUMNS, load_emission_csv,
                                 load_weather_csv)
from lru_online.errors import ConfigurationError
from lru_online.synth import (GeneratorConfig, ShiftSpec, _ou_noise,
                              generate_dataset, write_dataset)


def session_dts(table):
    out = []
    for sid in table.sessions():
        ts = table.timestamps[table.session_indices(sid)]
        out.append(np.diff(ts))
    return np.concatenate(out)


class TestTimeDeltas:
    def test_no_dropping_gives_regular_grid(self):
        cfg = GeneratorConfig(sessions=2, session_seconds=600,
                              missing_rate=0.0, seed=0)
        dts = session_dts(generate_dataset(cfg).emission)
        assert np.all(dts == 1.0)

    def test_mean_median_ratio_under_dropping(self):
        # i.i.d. drops at rate r leave median dt = 1 s while the mean dt
        # stretches to 1 / (1 - r)
        cfg = GeneratorConfig(sessions=3, session_seconds=3600,
                              missing_rate=0.211, seed=1)
        dts = session_dts(generate_dataset(cfg).emission)
        assert np.median(dts) == 1.0
        expect = 1.0 / (1.0 - cfg.missing_rate)
        assert abs(np.mean(dts) - expect) / expect < 0.03


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = GeneratorConfig(sessions=2, session_seconds=300, seed=7)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert np.array_equal(a.emission.timestamps, b.emission.timestamps)
        for c in a.emission.columns:
            assert np.array_equal(a.emission.columns[c],
                                  b.emission.columns[c])
        assert np.array_equal(a.weather.temp_c, b.weather.temp_c)
        assert a.manifest == b.manifest

    def test_seed_changes_data(self):
        base = dict(sessions=1, session_seconds=300, missing_rate=0.0)
        a = generate_dataset(GeneratorConfig(seed=0, **base))
        b = generate_dataset(GeneratorConfig(seed=1, **base))
        assert not np.array_equal(a.emission.columns["speed_kmh"],
                                  b.emission.columns["speed_kmh"])


def ou_noise_reference(rng, n, tau, sigma):
    """The separate OU loop _ou_noise replaced (same draws)."""
    x = np.zeros(n)
    decay = np.exp(-1.0 / tau)
    kick = sigma * np.sqrt(1.0 - decay * decay)
    xi = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = x[i - 1] * decay + kick * xi[i]
    return x


@pytest.mark.parametrize("tau, sigma", [(30.0, 2.0), (10.0, 25.0),
                                        (20.0, 0.08), (60.0, 0.3)])
def test_ou_noise_matches_reference_loop(tau, sigma):
    got = _ou_noise(np.random.default_rng(3), 500, tau, sigma)
    ref = ou_noise_reference(np.random.default_rng(3), 500, tau, sigma)
    assert np.array_equal(got, ref)


class TestShift:
    def test_tail_sessions_carry_gain(self):
        cfg = GeneratorConfig(sessions=4, session_seconds=1200,
                              missing_rate=0.0, shift_sessions=1,
                              shift=ShiftSpec(emission_gain=2.0,
                                              ambient_offset_c=0.0), seed=3)
        em = generate_dataset(cfg).emission
        for c in TARGET_COLUMNS:
            head = em.columns[c][em.session_indices(0)]
            tail = em.columns[c][em.session_indices(3)]
            assert np.mean(tail) > 1.4 * np.mean(np.abs(head))

    def test_manifest_marks_shifted_sessions(self):
        cfg = GeneratorConfig(sessions=3, session_seconds=120,
                              shift_sessions=2, seed=0)
        manifest = generate_dataset(cfg).manifest
        flags = [s["shift"] is not None for s in manifest["sessions"]]
        assert flags == [False, True, True]


class TestValidation:
    def test_bad_missing_rate(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(GeneratorConfig(missing_rate=0.95))

    def test_more_shift_than_sessions(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(GeneratorConfig(sessions=2, shift_sessions=3))

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig(sessions=3, shift_sessions=-2),
        GeneratorConfig(shift=ShiftSpec(emission_gain=float("nan"))),
        GeneratorConfig(shift=ShiftSpec(emission_gain=float("inf"))),
        GeneratorConfig(shift=ShiftSpec(ambient_offset_c=float("nan"))),
    ], ids=["negative_shift_sessions", "nan_gain", "inf_gain", "nan_offset"])
    def test_bad_shift_rejected(self, cfg):
        """Rejected before any data is made: a negative count would write
        unshifted data, a non-finite gain NaN targets."""
        with pytest.raises(ConfigurationError, match="shift"):
            generate_dataset(cfg)

    def test_zero_sessions(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(GeneratorConfig(sessions=0))

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_dataset(GeneratorConfig(seed=-1))


# sha256 of the files write_dataset makes of the default scenario, per
# seed: a change to the generator or the writer that moves one byte of them
# shows here
WRITTEN_SHA256 = {
    0: {"emission.csv": "ddf9136ef720ea948e52a0a06c9f9783279cab24e07269453539f89abab08ac8",
        "weather.csv": "ffa1c192a3cc3d474c8df3e0a3478da6bbb0b12dfdd69b3a16d21350a6ab42dd",
        "sessions.json": "d079bf42914f10a3424f1bb102b167b9a0a0b61dd18f7b5feee9c47c292d8018"},
    1: {"emission.csv": "89b1904f64e14619c579faab4925f76d0204b476ffc34efc2cca4cda4c840b94",
        "weather.csv": "e7ac65c2c19a53252b27f56d9feedb6ebca527fe82722ce7253aedc181a75d1f",
        "sessions.json": "d1483062779975fe4325207fb6e9523a827081c50b95d6a873d00d1efe99b159"},
    2: {"emission.csv": "efddfce93ad8be274d19399f214fe329f1e8686419120aac5d2a5f695e598bbf",
        "weather.csv": "eefce617f9e0f9a1005d8f660a7e1d836e3e431c4716a8f2978a8688d6383864",
        "sessions.json": "b3ab1f75705c7f12ba71fec7cdb4a3e0bcd55b6545282e12cbaeaeca93f638bc"},
}


class TestWriteDataset:
    @pytest.mark.parametrize("seed", sorted(WRITTEN_SHA256))
    def test_written_bytes_pinned(self, tmp_path, seed):
        write_dataset(generate_dataset(GeneratorConfig(seed=seed)), tmp_path)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in WRITTEN_SHA256[seed]}
        assert got == WRITTEN_SHA256[seed]

    def test_csv_roundtrip_is_exact(self, tmp_path):
        cfg = GeneratorConfig(sessions=2, session_seconds=400, seed=5)
        ds = generate_dataset(cfg)
        write_dataset(ds, tmp_path)
        em = load_emission_csv(tmp_path / "emission.csv")
        assert np.array_equal(em.timestamps, ds.emission.timestamps)
        assert np.array_equal(em.session_ids, ds.emission.session_ids)
        for c in ds.emission.columns:
            assert np.array_equal(em.columns[c], ds.emission.columns[c])
        w = load_weather_csv(tmp_path / "weather.csv")
        assert np.array_equal(w.timestamps, ds.weather.timestamps)
        assert np.array_equal(w.precip_mm, ds.weather.precip_mm)

    def test_signal_ranges_plausible(self):
        em = generate_dataset(GeneratorConfig(sessions=1, session_seconds=1800,
                                              missing_rate=0.0, seed=2)).emission
        assert np.all(em.columns["engine_rpm"] >= 700.0)
        assert np.all(em.columns["engine_rpm"] <= 4500.0)
        assert np.all(em.columns["speed_kmh"] >= 0.0)
        assert np.all(em.columns["co2_pct"] <= 16.0)
