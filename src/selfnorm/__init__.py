"""Weighted self-normalized martingale bounds with simulators and Monte Carlo verification.

Each public name is imported from the submodule that defines it
(``selfnorm.bounds``, ``selfnorm.martingale``, ``selfnorm.montecarlo``,
``selfnorm.processes``).  This module imports nothing: ``selfnorm.cli`` sets
its OpenBLAS default before numpy loads, so nothing here may load numpy.
"""

__version__ = "0.1.0"
