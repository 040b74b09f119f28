"""Synthetic problem-instance generation.

Factors are drawn entrywise from |Bernoulli(p) * GeneralizedGaussian(alpha)|
with the generalized Gaussian normalized to unit variance; Gaussian noise is
rescaled exactly to the requested data SNR. Synthetic NMR sources are built
from bundled peak lists broadened with a Laplacian line shape.
"""

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import NgmcaError, PeakOutOfRangeError, ZeroSignalError
from .rng import stream

NOISELESS = "noiseless"


@dataclass
class InstanceSpec:
    m: int = 200
    n: int = 200
    r: int = 15
    p_A: float = 1.0
    p_S: float = 0.1
    alpha_A: float = 2.0
    alpha_S: float = 1.0
    snr_db: float | str | None = NOISELESS
    seed: int = 0

    def __post_init__(self):
        # None, inf and "noiseless" all mean no noise; numeric strings
        # are numbers
        snr = self.snr_db
        if isinstance(snr, str) and snr != NOISELESS:
            snr = float(snr)
        self.snr_db = NOISELESS if snr is None or snr == math.inf else snr

    def is_noiseless(self) -> bool:
        return self.snr_db == NOISELESS


@dataclass
class ProblemInstance:
    y: np.ndarray
    a_ref: np.ndarray
    s_ref: np.ndarray
    z: np.ndarray
    spec: InstanceSpec


@dataclass
class PeakList:
    """Sparse line spectrum: (position, amplitude) pairs plus a label."""

    peaks: list[tuple[float, float]]
    compound_name: str = ""


def gg_scale(alpha: float) -> float:
    """Scale beta making the generalized Gaussian pdf exp(-|x/beta|^alpha)
    have unit variance."""
    return math.sqrt(math.gamma(1.0 / alpha) / math.gamma(3.0 / alpha))


def sample_generalized_gaussian(alpha: float, count: int,
                                gen: np.random.Generator) -> np.ndarray:
    """Unit-variance, zero-mean generalized Gaussian samples (gamma method).

    x = sign * beta * G^(1/alpha) with G ~ Gamma(1/alpha, 1) has density
    proportional to exp(-|x/beta|^alpha).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    g = gen.gamma(1.0 / alpha, 1.0, size=count)
    signs = np.where(gen.random(count) < 0.5, -1.0, 1.0)
    return signs * gg_scale(alpha) * g ** (1.0 / alpha)


def gen_factor(rows: int, cols: int, p: float, alpha: float,
               gen: np.random.Generator) -> np.ndarray:
    """Matrix with i.i.d. |B_p * G_alpha| entries."""
    mask = gen.random((rows, cols)) < p
    vals = np.abs(sample_generalized_gaussian(alpha, rows * cols, gen))
    return mask * vals.reshape(rows, cols)


def add_noise_snr(x: np.ndarray, snr_db: float,
                  gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Add Gaussian noise rescaled so the realized SNR is exactly snr_db;
    snr_db = inf adds zero noise and draws nothing."""
    signal_norm = np.linalg.norm(x)
    if signal_norm == 0.0:
        raise ZeroSignalError("cannot set an SNR against a zero signal")
    if snr_db == math.inf:
        z = np.zeros_like(x)
        return x + z, z
    z = gen.standard_normal(x.shape)
    z *= signal_norm / (np.linalg.norm(z) * 10.0 ** (snr_db / 20.0))
    return x + z, z


def _redraw_dead(mat: np.ndarray, axis: int, p: float, alpha: float,
                 gen: np.random.Generator, what: str) -> None:
    """Redraw all-zero rows (axis=1) or columns (axis=0), up to 100 times."""
    for _ in range(100):
        dead = ~mat.any(axis=axis)
        if not dead.any():
            return
        for i in np.flatnonzero(dead):
            fresh = gen.random(mat.shape[axis]) < p
            vals = np.abs(sample_generalized_gaussian(alpha, mat.shape[axis], gen))
            if axis == 1:
                mat[i, :] = fresh * vals
            else:
                mat[:, i] = fresh * vals
    raise NgmcaError(f"could not draw a nonzero {what} in 100 attempts "
                     f"(p={p} too small?)")


def gen_instance(spec: InstanceSpec) -> ProblemInstance:
    """Full synthetic instance: factors, product, exact-SNR noise."""
    gen_a = stream(spec.seed, "A")
    gen_s = stream(spec.seed, "S")
    a_ref = gen_factor(spec.m, spec.r, spec.p_A, spec.alpha_A, gen_a)
    _redraw_dead(a_ref, 0, spec.p_A, spec.alpha_A, gen_a, "mixing column")
    s_ref = gen_factor(spec.r, spec.n, spec.p_S, spec.alpha_S, gen_s)
    _redraw_dead(s_ref, 1, spec.p_S, spec.alpha_S, gen_s, "source row")
    return _observe(a_ref, s_ref, spec)


def _observe(a_ref: np.ndarray, s_ref: np.ndarray,
             spec: InstanceSpec) -> ProblemInstance:
    """Y = A_ref S_ref plus noise at exactly spec.snr_db (none if noiseless)."""
    snr_db = math.inf if spec.is_noiseless() else float(spec.snr_db)
    y, z = add_noise_snr(a_ref @ s_ref, snr_db, stream(spec.seed, "noise"))
    return ProblemInstance(y, a_ref, s_ref, z, spec)


# --- synthetic NMR sources ------------------------------------------------

#: truncation radius of the Laplacian kernel, in units of its scale b;
#: tail mass beyond 12 b is below 1e-5
KERNEL_RADIUS = 12.0


def gen_nmr_sources(peaklists: list[PeakList], n: int,
                    fwhm_samples: float = 3.0) -> np.ndarray:
    """Render peak lists on an n-sample grid with Laplacian broadening.

    A peak of amplitude a at position t0 contributes
    a * exp(-|t - t0| / b) with b = fwhm / (2 ln 2), truncated at 12 b.
    Fractional positions in [0, 1) are interpreted as a fraction of the
    grid; anything else is a sample index.
    """
    if n < 2.0 * fwhm_samples:
        raise ValueError("grid too short for the requested line width")
    b = fwhm_samples / (2.0 * math.log(2.0))
    radius = KERNEL_RADIUS * b
    t = np.arange(n, dtype=float)
    rows = np.zeros((len(peaklists), n))
    for i, pl in enumerate(peaklists):
        for pos, amp in pl.peaks:
            if amp <= 0.0:
                raise ValueError(f"non-positive amplitude in {pl.compound_name!r}")
            center = pos * n if 0.0 <= pos < 1.0 and isinstance(pos, float) \
                and not float(pos).is_integer() else float(pos)
            if not 0.0 <= center < n:
                raise PeakOutOfRangeError(
                    f"peak at {pos} outside [0, {n}) in {pl.compound_name!r}")
            dist = np.abs(t - center)
            kernel = np.where(dist <= radius, np.exp(-dist / b), 0.0)
            rows[i] += amp * kernel
    return rows


def load_peak_list(path: Path) -> PeakList:
    """Parse one `position<TAB>amplitude` file; '#' starts a comment."""
    peaks = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pos_s, amp_s = line.split("\t")
        peaks.append((float(pos_s), float(amp_s)))
    return PeakList(peaks=peaks, compound_name=Path(path).stem)


def load_peak_corpus(directory: Path | None = None) -> list[PeakList]:
    """Load all *.peaks files; defaults to the bundled corpus."""
    if directory is None:
        directory = Path(resources.files("ngmca") / "corpus" / "nmr")
    paths = sorted(Path(directory).glob("*.peaks"))
    if not paths:
        raise NgmcaError(f"no *.peaks files in {directory}")
    return [load_peak_list(p) for p in paths]


def gen_nmr_instance(m: int, snr_db: float | str | None, seed: int,
                     peaklists: list[PeakList] | None = None,
                     n: int = 1200,
                     fwhm_samples: float = 3.0) -> ProblemInstance:
    """Instance whose sources are broadened bundled spectra."""
    peaklists = peaklists if peaklists is not None else load_peak_corpus()
    s_ref = gen_nmr_sources(peaklists, n, fwhm_samples)
    r = s_ref.shape[0]
    gen_a = stream(seed, "A")
    a_ref = gen_factor(m, r, 1.0, 2.0, gen_a)
    _redraw_dead(a_ref, 0, 1.0, 2.0, gen_a, "mixing column")
    spec = InstanceSpec(m=m, n=n, r=r, p_A=1.0, alpha_A=2.0,
                        snr_db=snr_db, seed=seed)
    return _observe(a_ref, s_ref, spec)
