"""Growth dynamics of social-media pages.

Aggregates post-level engagement into calendar windows, extracts
multiplicative growth-rate samples, calibrates Laplace and Burr
distributions, tests size classes against each other, regresses
distribution parameters on log size, and simulates follower/engagement
trajectories forward. A synthetic data generator makes the whole chain
runnable without proprietary exports.

Names are imported from the submodules, e.g. ``from pagegrowth import
pipeline`` or ``from pagegrowth.stats import mann_whitney``.
"""

__version__ = "0.1.0"
