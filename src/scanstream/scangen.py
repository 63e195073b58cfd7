"""Synthetic ring-structured LiDAR scans from a procedural environment.

The environment is a vertical enclosure whose horizontal radius is a seeded
sum of azimuth harmonics, phase-shifted by sensor position so motion changes
what each ray hits, plus a flat ground plane below the sensor.  Rays follow
a spinning-sensor layout (rings x azimuth steps); each return is the nearer
of wall and ground along the ray, range-clamped and perturbed by clipped
Gaussian noise.

Scans are deterministic per (seed, t): environment shape derives from the
seed alone, per-scan noise from a child stream keyed by the exact bit
pattern of t, so no call order or history affects any scan.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .codec import MAX_POINTS, PointCloudScan, Workspace


@dataclass(frozen=True)
class SensorProfile:
    rings: int = 32
    azimuth_steps: int = 1024
    elev_min_deg: float = -30.0
    elev_max_deg: float = 15.0
    sensor_height: float = 1.5  # meters above ground
    max_range: float = 45.0  # keeps every return inside the codec's default box
    min_range: float = 0.5
    noise_sigma: float = 0.01

    def __post_init__(self) -> None:
        if not all(np.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError(f"every field must be finite, got {self}")
        if self.rings < 1 or self.azimuth_steps < 1:
            raise ValueError("rings and azimuth_steps must be >= 1")
        if self.n_points > MAX_POINTS:
            raise ValueError(f"{self.n_points} points exceed the codec's limit of {MAX_POINTS}")
        if self.elev_min_deg >= self.elev_max_deg:
            raise ValueError("need elev_min_deg < elev_max_deg")
        if not (0 < self.min_range < self.max_range):
            raise ValueError("need 0 < min_range < max_range")
        if self.sensor_height <= 0 or self.noise_sigma < 0:
            raise ValueError("sensor_height must be positive, noise_sigma nonnegative")

    @property
    def n_points(self) -> int:
        return self.rings * self.azimuth_steps


def _time_key(t: float) -> int:
    # exact bit pattern, so 0.1 and 0.1000000001 seed different streams
    return int(np.float64(t).view(np.uint64))


class ScanGenerator:
    """Procedural scan source; see the module docstring."""

    N_HARMONICS = 6

    def __init__(
        self,
        profile: SensorProfile = SensorProfile(),
        seed: int = 0,
        velocity: tuple[float, float] = (1.0, 0.3),
    ):
        self.profile = profile
        self.seed = int(seed)
        self.velocity = (float(velocity[0]), float(velocity[1]))
        env = np.random.default_rng(np.random.SeedSequence([self.seed, 0xE417]))
        self._r0 = env.uniform(14.0, 24.0)
        self._amps = env.uniform(0.5, 2.5, self.N_HARMONICS)
        self._freqs = env.integers(1, 9, self.N_HARMONICS)  # integer harmonics: continuous wrap
        self._phases = env.uniform(0.0, 2.0 * np.pi, self.N_HARMONICS)
        self._kx = env.uniform(0.05, 0.35, self.N_HARMONICS)
        self._ky = env.uniform(0.05, 0.35, self.N_HARMONICS)
        p = profile
        elev = np.deg2rad(np.linspace(p.elev_min_deg, p.elev_max_deg, p.rings))
        azim = 2.0 * np.pi * np.arange(p.azimuth_steps) / p.azimuth_steps
        self._cos_e = np.cos(elev)[:, None]
        self._sin_e = np.sin(elev)[:, None]
        self._cos_a = np.cos(azim)[None, :]
        self._sin_a = np.sin(azim)[None, :]
        self._azim = azim
        self._harmonics = self._freqs[:, None] * azim + self._phases[:, None]
        with np.errstate(divide="ignore"):
            self._slant_ground = np.where(
                self._sin_e < 0, p.sensor_height / np.maximum(-self._sin_e, 1e-12), np.inf
            )

    def _wall_radius(self, pos: tuple[float, float]) -> np.ndarray:
        # r0, then each harmonic's sin(base + kx x + ky y) times its amplitude
        terms = np.empty((self.N_HARMONICS + 1, len(self._azim)))
        terms[0] = self._r0
        phase = np.add(self._harmonics, (self._kx * pos[0])[:, None], out=terms[1:])
        phase += (self._ky * pos[1])[:, None]
        np.sin(phase, out=phase)
        phase *= self._amps[:, None]
        # r0 as a row, not `initial`: even a one-column reduce then adds it first
        r = np.add.reduce(terms, axis=0)
        return np.clip(r, 4.0, self.profile.max_range - 1.0, out=r)

    def generate(self, t: float, scan_id: int, out: Workspace | None = None) -> PointCloudScan:
        """The scan at time t, its points axis rows (see Workspace), made in
        `out`, a Workspace for this profile that the caller owns, if given:
        the next generate into `out` overwrites it."""
        p = self.profile
        n = p.n_points
        points = np.empty((3, n)).T if out is None else out.sized(n).points
        # y's row holds the noise and z's the range grid until they are made from them
        x, noise, rng_range = (row.reshape(p.rings, p.azimuth_steps) for row in points.T)
        pos = (self.velocity[0] * t, self.velocity[1] * t)
        np.divide(self._wall_radius(pos), self._cos_e, out=rng_range)  # slant range to the wall
        np.minimum(rng_range, self._slant_ground, out=rng_range)
        np.clip(rng_range, p.min_range, p.max_range, out=rng_range)
        if p.noise_sigma > 0:
            noise_rng = np.random.default_rng(np.random.SeedSequence([self.seed, _time_key(t)]))
            noise_rng.standard_normal(out=noise)
            noise *= p.noise_sigma  # bit for bit what normal(0.0, sigma) draws
            np.clip(noise, -3.0 * p.noise_sigma, 3.0 * p.noise_sigma, out=noise)
            rng_range += noise
            np.clip(rng_range, p.min_range, p.max_range, out=rng_range)
        across = np.multiply(rng_range, self._cos_e, out=noise)  # horizontal range, for x and y
        np.multiply(across, self._cos_a, out=x)
        np.multiply(across, self._sin_a, out=across)  # y
        np.multiply(rng_range, self._sin_e, out=rng_range)  # z
        return PointCloudScan(points=points, scan_id=scan_id, timestamp=float(t))


def generate_corpus(
    profile: SensorProfile,
    seed: int,
    n_scans: int,
    scan_hz: float = 10.0,
    velocity: tuple[float, float] = (1.0, 0.3),
) -> list[PointCloudScan]:
    gen = ScanGenerator(profile, seed, velocity)
    return [gen.generate(k / scan_hz, scan_id=k) for k in range(n_scans)]
