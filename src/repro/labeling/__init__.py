"""Hop-based labeling indexes: H2H, DH2H and the multi-stage MHL."""

from repro.labeling.h2h import DH2HIndex, H2HIndex, H2HLabels
from repro.labeling.mhl import MHLIndex

__all__ = ["H2HLabels", "H2HIndex", "DH2HIndex", "MHLIndex"]
