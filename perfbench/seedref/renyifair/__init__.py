"""Fair inference via maximal correlation.

Exact Renyi (maximal) correlation for discrete variables, min-max training
of fairness-regularized classifiers, and fair K-means clustering.
"""

__version__ = "0.1.0"

from . import data, faircluster, fairtrain, maxcorr, metrics, model  # noqa: F401
