"""tracemix: mine block I/O traces for long-range access patterns with
non-parametric temporal count mixtures, then preload a simulated cache.

The package imports none of its modules.  Each command line command loads
only the modules it runs, so a process that aggregates a trace never
loads the sampler; callers import the submodules they use
(``from tracemix import gibbs``).
"""

__version__ = "0.1.0"
