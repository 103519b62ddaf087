"""Closed-form error rates that the simulated links are held to (Proakis, Digital Communications, 4.4-4.5)."""

import math

import numpy as np


def noncoherent_fsk_index_error(n, es_n0_db):
    """Symbol error rate of noncoherent orthogonal n-FSK (Proakis, Digital Communications, 4.5):
    P = sum_k (-1)^(k+1) C(n-1, k) / (k+1) * exp(-k/(k+1) * Es/N0)."""
    es_n0 = 10 ** (es_n0_db / 10)
    return sum((-1) ** (k + 1) * math.comb(n - 1, k) / (k + 1) * math.exp(-k / (k + 1) * es_n0) for k in range(1, n))


def biorthogonal_block_error(dims, es_n0_db):
    """Symbol error rate of coherent biorthogonal signalling in `dims` dimensions (2 * dims signals; Proakis 4.4):
    P = 1 - integral_0^inf phi((x-1)/s)/s * erf(x/(s sqrt 2))^(dims-1) dx, with s^2 = 1/(2 Es/N0),
    taken by the trapezoid rule."""
    sigma = math.sqrt(1 / (2 * 10 ** (es_n0_db / 10)))
    x = np.linspace(0.0, 1.0 + 12 * sigma, 20_001)
    density = np.exp(-0.5 * ((x - 1) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    inside = np.array([math.erf(v / (sigma * math.sqrt(2))) for v in x])
    return 1.0 - float(np.trapezoid(density * inside ** (dims - 1), x))
