"""Hilbert-Schmidt distance toolkit: exact linear algebra, interferometric
measurement simulation, Bloch-vector data encoding and k-means clustering."""

from qhsd.states import (
    BellKind,
    DensityMatrix,
    decode,
    generator_basis,
    hsd_exact,
    hsd_from_overlaps,
    make_bell,
    make_horodecki,
    make_separable,
    make_werner,
    maximally_mixed,
    overlap_exact,
    purity,
)
from qhsd.encoding import encode, safe_radius
from qhsd.interferometry import NoiseModel, measure_hsd
from qhsd.clustering import kmeans

__all__ = [
    "BellKind",
    "DensityMatrix",
    "NoiseModel",
    "decode",
    "encode",
    "generator_basis",
    "hsd_exact",
    "hsd_from_overlaps",
    "kmeans",
    "make_bell",
    "make_horodecki",
    "make_separable",
    "make_werner",
    "maximally_mixed",
    "measure_hsd",
    "overlap_exact",
    "purity",
    "safe_radius",
]

__version__ = "0.1.0"
