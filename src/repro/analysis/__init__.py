"""Analysis helpers: statistics, sweeps, caching and table rendering."""
