//! Every baseline the paper compares against (Tables II–V, Figs. 7–11):
//!
//! * [`SimpleCnn`] / [`ResNetProxy`] — hand-designed fixed models trained
//!   with FedAvg (the "FedAvg" and "FedAvg\*" rows; ResNet152 in the paper,
//!   a parameter-heavy residual proxy here);
//! * [`DartsSearch`] — centralized gradient-based NAS (DARTS 1st/2nd
//!   order) on the same mixed-operation supernet;
//! * [`EnasSearch`] — centralized RL NAS (ENAS-style) sharing the
//!   REINFORCE controller;
//! * [`FedNasSearch`] — gradient-based *federated* NAS that ships the whole
//!   supernet to every participant (the communication-cost foil);
//! * [`EvoFedNas`] — evolutionary federated NAS with big/small search
//!   spaces (EvoFedNAS in the tables).

#![warn(missing_docs)]

mod darts_grad;
mod enas;
mod evofednas;
mod fednas;
mod fixed;

pub use darts_grad::{DartsOrder, DartsSearch};
pub use enas::EnasSearch;
pub use evofednas::{EvoFedNas, EvoSpace};
pub use fednas::FedNasSearch;
pub use fixed::{ResNetProxy, SimpleCnn};
