"""Closed-form error rates that the simulated links are held to (Proakis, Digital Communications, 4.4-4.5)."""

import math

import numpy as np


def noncoherent_fsk_index_error(n, es_n0_db):
    """Symbol error rate of noncoherent orthogonal n-FSK (Proakis, Digital Communications, 4.5):
    P = sum_k (-1)^(k+1) C(n-1, k) / (k+1) * exp(-k/(k+1) * Es/N0)."""
    es_n0 = 10 ** (es_n0_db / 10)
    return sum((-1) ** (k + 1) * math.comb(n - 1, k) / (k + 1) * math.exp(-k / (k + 1) * es_n0) for k in range(1, n))


def _qam_average(rate, m, es_n0_db):
    """``rate(es_n0_db + 10 log10 |a|^2)`` averaged over the points a of unit-average-energy square m-QAM, each
    distinct energy once, weighted by its points.  The levels are built here, not read from the codec, so a scale
    error there shows."""
    side = math.isqrt(m)
    assert side * side == m, f"square QAM only, got m={m}"
    levels = np.arange(1 - side, side, 2)  # the PAM levels along each axis
    energies = (levels[:, None] ** 2 + levels[None, :] ** 2).ravel()
    energies, points = np.unique(energies / energies.mean(), return_counts=True)
    return float(np.average([rate(es_n0_db + 10 * math.log10(e)) for e in energies], weights=points))


def noncoherent_qam_index_error(n, m, es_n0_db):
    """Index error rate of noncoherent orthogonal n-FSK whose tones carry unit-average-energy square m-QAM:
    the index decision sees only |a| of the sent point a, so it errs as noncoherent n-FSK at |a|^2 Es/N0,
    averaged over the m points."""
    return _qam_average(lambda es: noncoherent_fsk_index_error(n, es), m, es_n0_db)


def biorthogonal_block_error(dims, es_n0_db):
    """Symbol error rate of coherent biorthogonal signalling in `dims` dimensions (2 * dims signals; Proakis 4.4):
    P = 1 - integral_0^inf phi((x-1)/s)/s * erf(x/(s sqrt 2))^(dims-1) dx, with s^2 = 1/(2 Es/N0),
    taken by the trapezoid rule."""
    sigma = math.sqrt(1 / (2 * 10 ** (es_n0_db / 10)))
    x = np.linspace(0.0, 1.0 + 12 * sigma, 20_001)
    density = np.exp(-0.5 * ((x - 1) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    inside = np.array([math.erf(v / (sigma * math.sqrt(2))) for v in x])
    return 1.0 - float(np.trapezoid(density * inside ** (dims - 1), x))


def _rician_cdf(r, nu, s2):
    """P(|nu + w| <= r) on the grid `r` (last axis) for complex Gaussian w of variance s2, nu of any shape that
    broadcasts against it: a cumulative trapezoid over the Rician density (np.i0 keeps that finite up to about 20 dB)."""
    density = 2 * r / s2 * np.exp(-(r**2 + nu**2) / s2) * np.i0(2 * r * nu / s2)
    steps = np.cumsum((density[..., 1:] + density[..., :-1]) / 2 * np.diff(r), axis=-1)
    return np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)


def ofdm_single_silent_index_error(n, es_n0_db):
    """Index error rate of single-silent OFDM with one n-bin frame of unit-modulus symbols (BPSK or QPSK).

    With per-bin noise variance s^2 = 10**(-Es/N0/10), the silent bin's amplitude is Rayleigh and each of the
    n - 1 active bins' is Rician about 1; the index is right when the silent bin is the weakest:
    P = 1 - integral_0^inf f_silent(r) * P(|1 + w| > r)^(n-1) dr, taken by the trapezoid rule, with the Rician
    tail from `_rician_cdf`."""
    s2 = 10 ** (-es_n0_db / 10)
    r = np.linspace(0.0, 1.0 + 12 * math.sqrt(s2), 20_001)
    silent = 2 * r / s2 * np.exp(-(r**2) / s2)
    return 1.0 - float(np.trapezoid(silent * (1.0 - _rician_cdf(r, 1, s2)) ** (n - 1), r))


def ofdm_single_silent_qam_index_error(n, m, es_n0_db):
    """Index error rate of single-silent OFDM whose n - 1 active bins all repeat the sent point a of square m-QAM:
    the index decision sees only bin energies, so it errs as `ofdm_single_silent_index_error` at |a|^2 Es/N0,
    averaged over the m points."""
    return _qam_average(lambda es: ofdm_single_silent_index_error(n, es), m, es_n0_db)


def ml_block_error_bounds(signals, es_n0_db):
    """Lower and upper bounds on the ML block error rate of the equiprobable rows of `signals` (K, S) in complex
    AWGN of per-sample variance s^2 = S * 10**(-Es/N0/10), from the distances d_ij between rows:
    the nearest-neighbour bound mean_i max_j Q(d_ij / sqrt(2 s^2)) and the union bound mean_i sum_j Q(d_ij / sqrt(2 s^2))."""
    signals = np.asarray(signals)
    s2 = signals.shape[-1] * 10 ** (-es_n0_db / 10)
    distances = np.linalg.norm(signals[:, None, :] - signals[None, :, :], axis=-1)
    q = np.vectorize(math.erfc)(distances / (2 * math.sqrt(s2))) / 2
    np.fill_diagonal(q, 0.0)
    return float(q.max(axis=1).mean()), float(q.sum(axis=1).mean())


def _largest_output_index_error(n, m, es_n0_db, samples, df_t, delta, counts_for):
    """Index error rate of a detector that takes the largest of the S = `samples` unpadded FFT bin amplitudes and
    names the offset that bin counts for (`counts_for[b]`, or -1 for a bin it does not look at), on n offsets
    k * df_t bins apart (integer df_t), with square m-QAM and a carrier error of `delta` bins.

    The bins are independent: bin b is Rician about |a D(k df_t + delta - b)| / S with per-bin noise variance
    s^2 = 10**(-Es/N0/10), where D is the Dirichlet kernel over S samples.  The index is right when the largest bin
    counts for the sent offset k: P = 1 - integral prod_{b for others} F_b d(prod_{b for k} F_b), averaged over k
    and, as in `_qam_average`, over the points a.  Each F_b is `_rician_cdf` on 4001 points: within 2e-4 of
    200,001 points at 6-14 dB."""
    t, looked = np.arange(samples), np.flatnonzero(counts_for >= 0)
    # Bin b sees the tone of offset k at (b - k df_t) mod S bins from it, so one amplitude per distance serves every k;
    # only the distances from a looked-at bin to an offset are needed.
    nu = np.abs(np.exp(2j * math.pi * np.outer(delta - t, t) / samples).sum(axis=1))[:, None] / samples
    distances = np.unique((looked[:, None] - df_t * np.arange(n)) % samples)

    def rate(es):
        s2 = 10 ** (-es / 10)
        cdf = np.zeros((samples, 4001))
        cdf[distances] = _rician_cdf(np.linspace(0.0, 1.0 + 12 * math.sqrt(s2), 4001), nu[distances], s2)
        right = 0.0
        for k in range(n):
            shifted = cdf[(looked - k * df_t) % samples]
            mine = counts_for[looked] == k
            inside, outside = shifted[mine].prod(axis=0), shifted[~mine].prod(axis=0)
            right += float(np.sum((outside[1:] + outside[:-1]) / 2 * np.diff(inside)))
        return 1.0 - right / n

    return _qam_average(rate, m, es_n0_db)


def two_stage_index_error(n, m, es_n0_db, samples, df_t=1, delta=0.0):
    """Index error rate of the two-stage detector at zero_pad_factor 1 on n offsets k * df_t bins apart (integer
    df_t), `samples` samples per symbol, square m-QAM, and a carrier error of `delta` bins: the largest of all S bins,
    each snapped to its nearest offset (offset 0 owns the negative frequencies too), by
    `_largest_output_index_error`."""
    bins = np.fft.fftfreq(samples, d=1.0 / samples)  # each bin's frequency in bins, in FFT order
    snaps_to = np.abs(bins[:, None] - df_t * np.arange(n)[None, :]).argmin(axis=1)
    return _largest_output_index_error(n, m, es_n0_db, samples, df_t, delta, snaps_to)


def noncoherent_cfo_index_error(n, m, es_n0_db, samples, df_t=1, delta=0.0):
    """Index error rate of the noncoherent detector, argmax_k |c_k| over the n matched-filter outputs, on offsets
    k * df_t bins apart (integer df_t), `samples` samples per symbol, square m-QAM, and a carrier error of `delta`
    bins.  Output k is FFT bin k * df_t, so each offset counts its own bin alone in `_largest_output_index_error`.
    OFDM single-active's index, the most energetic of its n bins, is the case samples = n, df_t = 1."""
    counts_for = np.full(samples, -1)
    counts_for[df_t * np.arange(n)] = np.arange(n)
    return _largest_output_index_error(n, m, es_n0_db, samples, df_t, delta, counts_for)


def qpsk_rotation_errors(n, es_n0_db, theta):
    """(index, block) error rates of coherent ML detection (joint-ml, the oracle) of Gray QPSK on n orthogonal tones
    whose received block is turned by an unknown carrier phase `theta`.

    Per tone the best QPSK metric Re(conj(s) c_k) is (|Re c_k| + |Im c_k|) / sqrt 2, so the index is
    argmax_k |Re c_k| + |Im c_k| and the symbol the winner's quadrant.  Turned by 45 degrees, |x| + |y| is
    sqrt 2 max(|x'|, |y'|), and the sent (1 + j) / sqrt 2 (every point is alike by symmetry) sits at
    (cos theta, -sin theta).  With noise variance s^2 = 10**(-Es/N0/10) / 2 per axis, a zero-mean output's |X| + |Y|
    is at most sqrt 2 t with probability G(t) = P(|x'| <= t)^2 = erf(t / (s sqrt 2))^2, so the 2-D integral over the
    sent output reduces to 1-D ones in t, taken by the trapezoid rule:
        index right = integral G(t)^(n-1) dF(t),  F the CDF of the sent output's max(|x'|, |y'|),
        block right = integral f_x'(t) P(|y'| < t) G(t)^(n-1) dt  (the quadrant is right when x' > |y'|)."""
    sigma = math.sqrt(10 ** (-es_n0_db / 10) / 2)
    t = np.linspace(0.0, 1.0 + 12 * sigma, 20_001)
    erf = np.vectorize(math.erf)

    def folded_cdf(mu):  # P(|mu + noise| <= t) on one axis
        return (erf((t - mu) / (sigma * math.sqrt(2))) + erf((t + mu) / (sigma * math.sqrt(2)))) / 2

    others = folded_cdf(0.0) ** (2 * (n - 1))
    y_cdf = folded_cdf(-math.sin(theta))
    sent_max = folded_cdf(math.cos(theta)) * y_cdf
    x_density = np.exp(-0.5 * ((t - math.cos(theta)) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    index_right = float(np.sum((others[1:] + others[:-1]) / 2 * np.diff(sent_max)))
    block_right = float(np.trapezoid(x_density * y_cdf * others, t))
    return 1.0 - index_right, 1.0 - block_right
