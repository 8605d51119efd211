"""Techno-economic analysis of long-distance HVDC interconnections.

Levelized cost per delivered kWh of long submarine cables and overhead
lines, benchmarking against real project budgets, peak-chasing arbitrage
and residual-trade evaluation for dual-connected remote generation, and an
hourly multi-region dispatch simulator for the smoothing and
reserve-sharing effects of interconnection.

The package exports no names itself; import them from its modules, e.g.
``from gridecon.scenario import evaluate_connection``.
"""

__version__ = "0.1.0"
