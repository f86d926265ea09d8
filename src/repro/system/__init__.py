"""Full-system simulation: configs, scheduler, metrics, energy."""
