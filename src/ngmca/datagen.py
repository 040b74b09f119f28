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
from .rng import as_seed, stream

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
        self.seed = as_seed(self.seed, "seed")

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
    lines = mat if axis == 1 else mat.T  # a view whose rows are mat's lines
    for _ in range(100):
        dead = ~lines.any(axis=1)
        if not dead.any():
            return
        for i in np.flatnonzero(dead):
            lines[i] = gen_factor(1, lines.shape[1], p, alpha, gen)[0]
    raise NgmcaError(f"could not draw a nonzero {what} in 100 attempts "
                     f"(p={p} too small?)")


def gen_instance(spec: InstanceSpec) -> ProblemInstance:
    """Full synthetic instance: factors, product, exact-SNR noise."""
    gen_s = stream(spec.seed, "S")
    s_ref = gen_factor(spec.r, spec.n, spec.p_S, spec.alpha_S, gen_s)
    _redraw_dead(s_ref, 1, spec.p_S, spec.alpha_S, gen_s, "source row")
    return _observe(s_ref, spec)


def _observe(s_ref: np.ndarray, spec: InstanceSpec) -> ProblemInstance:
    """Draw A_ref as spec says, then Y = A_ref S_ref plus noise at exactly
    spec.snr_db (none if noiseless)."""
    gen_a = stream(spec.seed, "A")
    a_ref = gen_factor(spec.m, spec.r, spec.p_A, spec.alpha_A, gen_a)
    _redraw_dead(a_ref, 0, spec.p_A, spec.alpha_A, gen_a, "mixing column")
    snr_db = math.inf if spec.is_noiseless() else float(spec.snr_db)
    y, z = add_noise_snr(a_ref @ s_ref, snr_db, stream(spec.seed, "noise"))
    return ProblemInstance(y, a_ref, s_ref, z, spec)


# --- synthetic NMR sources ------------------------------------------------

#: truncation radius of the Laplacian kernel, in units of its scale b;
#: tail mass beyond 12 b is below 1e-5
KERNEL_RADIUS = 12.0
#: NMR grid length and line width (full width at half maximum), in samples
NMR_SAMPLES = 1200
FWHM_SAMPLES = 3.0


def gen_nmr_sources(peaklists: list[PeakList], n: int) -> np.ndarray:
    """Render peak lists on an n-sample grid with Laplacian broadening.

    A peak of amplitude a at sample position t0 contributes
    a * exp(-|t - t0| / b) with b = FWHM_SAMPLES / (2 ln 2), truncated at
    KERNEL_RADIUS b.
    """
    if n < 2.0 * FWHM_SAMPLES:
        raise ValueError("grid too short for the line width")
    b = FWHM_SAMPLES / (2.0 * math.log(2.0))
    radius = KERNEL_RADIUS * b
    t = np.arange(n, dtype=float)
    rows = np.zeros((len(peaklists), n))
    for i, pl in enumerate(peaklists):
        for pos, amp in pl.peaks:
            if amp <= 0.0:
                raise ValueError(f"non-positive amplitude in {pl.compound_name!r}")
            if not 0.0 <= pos < n:
                raise PeakOutOfRangeError(
                    f"peak at {pos} outside [0, {n}) in {pl.compound_name!r}")
            dist = np.abs(t - pos)
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


def load_peak_corpus() -> list[PeakList]:
    """Load the bundled corpus: every *.peaks file, in name order."""
    directory = Path(resources.files("ngmca") / "corpus" / "nmr")
    paths = sorted(directory.glob("*.peaks"))
    if not paths:
        raise NgmcaError(f"no *.peaks files in {directory}")
    return [load_peak_list(p) for p in paths]


def gen_nmr_instance(m: int, snr_db: float | str | None, seed: int,
                     peaklists: list[PeakList] | None = None) -> ProblemInstance:
    """Instance whose sources are the broadened spectra (by default the
    bundled corpus) on NMR_SAMPLES samples."""
    s_ref = gen_nmr_sources(
        peaklists if peaklists is not None else load_peak_corpus(), NMR_SAMPLES)
    spec = InstanceSpec(m=m, n=NMR_SAMPLES, r=s_ref.shape[0], snr_db=snr_db,
                        seed=seed)
    return _observe(s_ref, spec)
