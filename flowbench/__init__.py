"""The repository's benchmark: full ``place_and_route`` runs on generated
circuits, timed with tracing off, plus a traced run that attributes the
time to the flow's layers.  ``python3 flowbench/run.py --help`` runs it."""
