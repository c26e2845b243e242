//! The standardized [`suite`] behind `byzcount-cli bench`.

pub mod suite;
