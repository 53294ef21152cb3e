"""Split-signature null-Kahler geometry toolkit.

Constructs (++--) four-metrics from closed-form potentials, verifies
anti-self-duality and the parallel-spinor conditions by two independent
curvature pipelines, checks the spectral-parameter Lax pair, and runs
the dispersionless-KP / Einstein-Weyl symmetry-reduction pipeline with
residual-based acceptance checks.

The submodules are the API; import each name from the module that
defines it (``from nullkahler.evolver import dkp_evolve``).  The package
itself imports nothing, because each process loads, and where bytecode
is not cached compiles, every module it imports: an evolver run loads
``expressions``, ``fields`` and ``evolver`` only, and the command line
(``nullkahler.cli``) loads them all.
"""

__version__ = "0.1.0"
