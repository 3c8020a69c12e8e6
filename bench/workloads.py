"""The benchmark's workloads, by name."""

from desk import DeskScale
from scan import SearchScan
from sweep import TheoremSweep

WORKLOADS = {cls.name: cls for cls in (TheoremSweep, DeskScale, SearchScan)}
