//! Code the codec tests share.

pub mod reference;
