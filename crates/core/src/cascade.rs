//! What is left of the removed selection cascade. [`Wise::select`]
//! no longer has a fast path, so [`Choice::cascade`] is always `None`.
//! These two types exist only so that `perfbench`, which still counts
//! stage-1 answers, keeps compiling; they go once it stops naming them.
//!
//! [`Wise::select`]: crate::pipeline::Wise::select
//! [`Choice::cascade`]: crate::pipeline::Choice::cascade

/// Which stage of the removed cascade produced a choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeStage {
    Stage1,
    Stage2,
}

/// Cascade provenance of a choice; never produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeInfo {
    pub stage: CascadeStage,
}
