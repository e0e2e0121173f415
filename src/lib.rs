//! # aalwines-suite — the full AalWiNes reproduction, under one roof
//!
//! This meta-crate re-exports the workspace members and hosts the glue
//! that needs several of them at once (the GUI JSON feed, the CLI).
//! See the [README](https://github.com/example/aalwines-rs) for an
//! overview and `DESIGN.md` for the system inventory.

pub use aalwines;
pub use formats;
pub use netmodel;
pub use pdaal;
pub use query;
pub use topogen;

pub mod error;
pub mod gui;

pub use error::{load_dataplane, load_dataplane_unchecked, LoadError};
