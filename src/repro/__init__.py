"""Reproduction of "Spatio-Temporal Modeling for Flash Memory Channels Using
Conditional Generative Nets" (DATE 2023).

The package is organised as a stack of subsystems:

``repro.nn``
    A from-scratch NumPy deep-learning framework (autograd, conv layers,
    Adam) used to build the generative models.
``repro.flash``
    The physics of a TLC NAND flash chip (wear, ICI, noise, program errors,
    retention, read disturb): it stands in for the paper's measured 1X-nm
    TLC chip.
``repro.data``
    Dataset generation: paired (program level, voltage level, P/E cycle)
    arrays, cropping, normalisation and batching.
``repro.baselines``
    Classical statistical channel models (Gaussian, Normal-Laplace, Student's
    t) fitted with a from-scratch Nelder-Mead simplex.
``repro.core``
    The paper's contribution: the conditional VAE-GAN and the comparator
    architectures (cGAN, cVAE, BicycleGAN), with spatio-temporal P/E
    conditioning.
``repro.channel``
    The unified channel-model protocol: simulator, generative and baseline
    backends behind one ``read_voltages`` API, selected by name from a
    registry, with batched sampling and per-condition caching.  Its
    ``SimulatorChannel`` is the simulator that provides the "measured"
    data.
``repro.exec``
    The sharded Monte-Carlo execution engine of the BCH/LDPC campaigns: a
    ``MonteCarloPlan`` run over pluggable serial/process/remote executors
    with per-unit seed splitting (bit-identical for any worker count).  The
    paper's figures and the time-aware code selection loop over their units
    with the same per-unit generators (``unit_rng``).
``repro.eval``
    Evaluation metrics: conditional PDFs, divergences, level error counts and
    ICI pattern analysis.
``repro.coding``
    ICI-mitigating constrained coding built on top of the channel model.
``repro.experiments``
    Drivers that regenerate every table and figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
