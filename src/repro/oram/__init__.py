"""Tiny ORAM (RAW Path ORAM) substrate and related ORAM machinery."""
