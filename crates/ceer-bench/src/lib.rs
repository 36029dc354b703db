//! Shared helpers for the snapshot benches (see `benches/`).
