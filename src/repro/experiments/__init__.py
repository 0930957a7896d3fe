"""Experiment drivers that regenerate every table and figure of the paper.

Each module exposes a ``run_*`` function returning a result object with
``rows()`` (machine-readable) and ``format()`` (plain text) methods.  The
benchmark harness under ``benchmarks/`` calls these drivers and prints the
same rows/series the paper reports.
"""

from repro.experiments.common import ExperimentSetup, PAPER_PE_CYCLES
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.remark3 import Remark3Result, run_remark3

__all__ = [
    "ExperimentSetup",
    "PAPER_PE_CYCLES",
    "Fig2Result",
    "run_fig2",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Remark3Result",
    "run_remark3",
]
