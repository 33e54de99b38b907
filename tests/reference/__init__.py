"""Frozen plain implementations that the differential tests compare the
library's fast paths against. Test-only code; never imported by numax."""
