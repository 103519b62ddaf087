"""Frequency offset modulation: design-space analytics and link simulation.

The package splits along the natural workflow:

    system     parameter records, frequency plans, validation
    analytics  closed-form efficiency ratios and design-space sweeps
    codec      bit framing, index mapping, Gray QAM constellations
    phy        baseband synthesis, channel impairments, detectors
    ofdm       the subcarrier-index OFDM equivalent of the same link
    scenario   reproducible Monte-Carlo harness and metrics CSV
    cli        `fomlink` command-line entry point
"""

from ._version import __version__
from . import analytics, codec, ofdm, phy, scenario, system
from .system import *
from .analytics import *
from .codec import *
from .phy import *
from .ofdm import *
from .scenario import *

# Each module's __all__ is its share of the package API.
__all__ = ["__version__", *system.__all__, *analytics.__all__, *codec.__all__, *phy.__all__, *ofdm.__all__, *scenario.__all__]
