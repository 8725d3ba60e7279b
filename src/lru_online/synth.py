"""Synthetic emission-style dataset generator.

Produces data matching the production CSV schema: per-session 1 s driving
signals with rows dropped at a configurable rate (so mean/median time-delta
statistics can be dialed in), hourly weather alongside, and an optional
distribution shift applied to the tail sessions so that online fine-tuning
has something real to adapt to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datapipe import EMISSION_HEADER, SeriesTable, WeatherTable
from .errors import ConfigurationError


@dataclass
class ShiftSpec:
    """Perturbation applied to held-out sessions: a multiplicative gain on
    all five emission targets and an ambient-temperature offset."""
    emission_gain: float = 1.3
    ambient_offset_c: float = 10.0


@dataclass
class GeneratorConfig:
    sessions: int = 5
    session_seconds: int = 3600
    missing_rate: float = 0.211      # mean dt ~= 1/(1-rate) ~= 1.267 s
    shift_sessions: int = 1          # number of tail sessions with the shift
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    seed: int = 0

    def validate(self) -> None:
        if not (0.0 <= self.missing_rate < 0.9):
            raise ConfigurationError(
                f"missing_rate must lie in [0, 0.9), got {self.missing_rate}")
        if self.session_seconds < 1:
            raise ConfigurationError(
                f"session duration must be >= 1 s, got {self.session_seconds}")
        if self.sessions < 1:
            raise ConfigurationError("need at least one session")
        if not 0 <= self.shift_sessions <= self.sessions:
            raise ConfigurationError(
                f"shift_sessions must lie in [0, {self.sessions}], "
                f"got {self.shift_sessions}")
        if not np.isfinite([self.shift.emission_gain,
                            self.shift.ambient_offset_c]).all():
            raise ConfigurationError(f"shift must be finite, got {self.shift}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticDataset:
    emission: SeriesTable
    weather: WeatherTable
    manifest: dict


def _ar1(rng, n: int, rho: float, sigma: float) -> np.ndarray:
    """e[0] = 0, e[i] = rho * e[i - 1] + sigma * xi[i] for n standard
    normal draws xi. The recurrence runs over Python floats, which round
    as float64 scalars do."""
    rho = float(rho)
    prev = 0.0
    e = [prev]
    for kick in (sigma * rng.standard_normal(n)).tolist()[1:]:
        prev = rho * prev + kick
        e.append(prev)
    return np.array(e)


def _ou_noise(rng, n: int, tau: float, sigma: float) -> np.ndarray:
    """Unit-step Ornstein-Uhlenbeck noise with time constant tau and
    stationary standard deviation sigma: AR(1) with rho = exp(-1/tau)."""
    rho = np.exp(-1.0 / tau)
    return _ar1(rng, n, rho, sigma * np.sqrt(1.0 - rho * rho))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def generate_dataset(cfg: GeneratorConfig) -> SyntheticDataset:
    """Deterministic per seed. Sessions start on consecutive days at 08:00;
    the last cfg.shift_sessions sessions carry the distribution shift."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    ts_all, sid_all = [], []
    cols_all: dict[str, list[np.ndarray]] = {c: [] for c in EMISSION_HEADER[1:]}
    w_ts, w_temp, w_precip, w_cond = [], [], [], []
    manifest_sessions = []
    row_cursor = 0
    for s in range(cfg.sessions):
        shifted = s >= cfg.sessions - cfg.shift_sessions
        t0 = s * 86400.0 + 8 * 3600.0
        n = cfg.session_seconds + 1
        t = np.arange(n, dtype=np.float64)

        # driving profile: a few slow sinusoids + OU jitter, clamped at rest
        speed = np.full(n, 35.0)
        for _ in range(4):
            period = rng.uniform(180.0, 1200.0)
            amp = rng.uniform(5.0, 15.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            speed += amp * np.sin(2 * np.pi * t / period + phase)
        speed += _ou_noise(rng, n, tau=30.0, sigma=2.0)
        speed = np.clip(speed, 0.0, None)
        accel = np.gradient(speed)

        # gear steps give the rpm trace its sawtooth texture
        gear = np.digitize(speed, [15.0, 30.0, 50.0, 70.0])
        ratio = np.array([1.0, 1.7, 2.4, 3.1, 3.8])[gear]
        rpm = np.clip(800.0 + speed * 120.0 / ratio + 180.0 * accel
                      + _ou_noise(rng, n, tau=10.0, sigma=25.0), 700.0, 4500.0)

        fuel_lph = np.clip(0.6 + 0.0016 * rpm + 0.25 * np.clip(accel, 0, None)
                           * (speed / 20.0 + 0.5)
                           + _ou_noise(rng, n, tau=20.0, sigma=0.08), 0.15, None)
        fuel_econ = np.clip(speed / fuel_lph, 0.0, 60.0)
        coolant = 20.0 + 70.0 * (1.0 - np.exp(-t / 600.0)) \
            + _ou_noise(rng, n, tau=60.0, sigma=0.3)

        # hourly ambient temperature with a daily cycle
        hour0 = int(np.floor(t0 / 3600.0))
        hour1 = int(np.floor((t0 + cfg.session_seconds) / 3600.0))
        hours = np.arange(hour0, hour1 + 1, dtype=np.float64)
        temp_h = 15.0 + 8.0 * np.sin(2 * np.pi * (hours % 24 - 9.0) / 24.0) \
            + rng.standard_normal(hours.size) * 0.5
        # light drizzle floor keeps the column non-constant on short runs
        precip_h = np.maximum(0.0, rng.normal(0.1, 0.3, hours.size))
        precip_h += np.where(rng.random(hours.size) < 0.15,
                             rng.uniform(0.5, 4.0, hours.size), 0.0)
        if shifted:
            temp_h = temp_h + cfg.shift.ambient_offset_c
        cond_h = np.where(precip_h > 0.0, "rain",
                          np.where(rng.random(hours.size) < 0.4,
                                   "cloudy", "clear")).astype(object)
        w_ts.append(hours * 3600.0)
        w_temp.append(temp_h)
        w_precip.append(precip_h)
        w_cond.append(cond_h)

        # per-second ambient for the emission response
        amb = temp_h[np.minimum(((t0 + t) / 3600.0).astype(int) - hour0,
                                hours.size - 1)]

        load = _sigmoid((rpm - 1800.0) / 400.0)
        surge = np.clip(accel, 0.0, None)
        no = 120.0 * load * (1.0 + 0.5 * surge) + 1.5 * (amb - 15.0) \
            + _ar1(rng, n, 0.95, 4.0)
        no2 = 0.35 * no + 25.0 * _sigmoid((speed - 60.0) / 10.0) \
            + _ar1(rng, n, 0.9, 2.0)
        nox = no + no2 + _ar1(rng, n, 0.8, 1.0)
        co2 = np.clip(2.0 + 9.0 * fuel_lph / (speed + 8.0)
                      + 0.02 * (amb - 15.0)
                      # 0.05 * 0.05 / 0.05 in float64: seeds keep their data
                      + _ar1(rng, n, 0.95, 0.05000000000000001),
                      0.2, 16.0)
        co = 250.0 * _sigmoid(surge / 0.4 - 1.0) + 0.05 * rpm \
            + _ar1(rng, n, 0.9, 8.0)
        targets = {"no_ppm": no, "no2_ppm": no2, "nox_ppm": nox,
                   "co2_pct": co2, "co_ppm": co}
        if shifted:
            for k in targets:
                targets[k] = targets[k] * cfg.shift.emission_gain

        keep = rng.random(n) >= cfg.missing_rate
        keep[0] = keep[-1] = True
        kept = int(keep.sum())

        ts_all.append(t0 + t[keep])
        sid_all.append(np.full(kept, s, dtype=np.int64))
        session_cols = {"engine_rpm": rpm, "fuel_lph": fuel_lph,
                        "coolant_c": coolant, "speed_kmh": speed,
                        "fuel_econ_kmpl": fuel_econ, **targets}
        for name in EMISSION_HEADER[1:]:
            cols_all[name].append(session_cols[name][keep])
        manifest_sessions.append({
            "session": s,
            "row_start": row_cursor,
            "row_end": row_cursor + kept,
            "start_timestamp": t0,
            "grid_seconds": cfg.session_seconds + 1,
            "shift": ({"emission_gain": cfg.shift.emission_gain,
                       "ambient_offset_c": cfg.shift.ambient_offset_c}
                      if shifted else None),
        })
        row_cursor += kept

    emission = SeriesTable(
        timestamps=np.concatenate(ts_all),
        session_ids=np.concatenate(sid_all),
        columns={c: np.concatenate(v) for c, v in cols_all.items()},
    )
    weather = WeatherTable(
        timestamps=np.concatenate(w_ts),
        temp_c=np.concatenate(w_temp),
        precip_mm=np.concatenate(w_precip),
        conditions=np.concatenate(w_cond),
    )
    manifest = {"seed": cfg.seed, "missing_rate": cfg.missing_rate,
                "sessions": manifest_sessions}
    return SyntheticDataset(emission=emission, weather=weather, manifest=manifest)


def write_dataset(ds: SyntheticDataset, outdir) -> None:
    """Write emission.csv, weather.csv and sessions.json. Every number is
    the repr of its Python float. The emission rows go out 1024 at a
    time, converted by one tolist() per block, so the transient copy is
    one block of rows. The default scenario's 14 000 rows take about
    95 ms, most of it in repr (2-vCPU Xeon)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    em = ds.emission
    cols = [em.timestamps, *(em.columns[c] for c in EMISSION_HEADER[1:])]
    with open(outdir / "emission.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(EMISSION_HEADER) + "\n")
        for lo in range(0, em.n_rows, 1024):
            rows = np.column_stack([c[lo:lo + 1024] for c in cols])
            fh.write("".join(",".join(map(repr, row)) + "\n"
                             for row in rows.tolist()))
    with open(outdir / "weather.csv", "w", encoding="utf-8") as fh:
        fh.write("timestamp_hour,temp_c,precip_mm,conditions\n")
        w = ds.weather
        for i in range(w.timestamps.size):
            fh.write(f"{float(w.timestamps[i])!r},{float(w.temp_c[i])!r},"
                     f"{float(w.precip_mm[i])!r},{w.conditions[i]}\n")
    with open(outdir / "sessions.json", "w", encoding="utf-8") as fh:
        json.dump(ds.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
