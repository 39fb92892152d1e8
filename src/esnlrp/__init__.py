"""Leaky echo state networks for 2-D pattern classification, with relevance maps.

Images are fed to the reservoir column by column, a closed-form linear
readout classifies from the final state, and the scalar output is decomposed
back onto the input pixels through the unfolded recurrence. The package root
holds only `__version__`; import the submodules (`from esnlrp import lrp,
reservoir`), so that each import loads only what it uses:

- reservoir: network configuration, initialization, forward pass
- readout:   closed-form training, sign-test accuracy reports
- lrp:       backward relevance pass and map exports
- data:      dataset container, ENSO labeling pipeline, synthetic task
- baselines: linear regression and the small identity-activation MLP
- persistence: bit-exact JSON model round-trips
- errors:    the configuration, data and numeric errors behind the exit codes
- blas:      the BLAS thread count of each phase
- cli:       experiment driver (`esnlrp` entry point)
"""

__version__ = "0.1.0"
