//! The unified experiment engine of the Ranger reproduction.
//!
//! The paper's contribution is a *pipeline* — profile activation bounds on a fraction of
//! the training data, selectively insert range restriction, measure SDC rates under fault
//! injection — and this crate makes that pipeline a first-class API instead of plumbing
//! repeated in every binary:
//!
//! * [`Pipeline`] — a fluent builder running the full profile → protect → inject arc and
//!   returning a serializable [`PipelineReport`].
//! * [`data`] — profiling-sample selection, the paper's correctly-predicted input
//!   selection, and task-appropriate SDC judges ([`JudgeSpec`]).
//! * [`protect_model`] / [`run_model_campaign`] — the two arc segments as standalone
//!   functions for callers that need to compose them differently.
//!
//! Protection goes through the [`Protector`](ranger::protect::Protector) trait and
//! campaign execution through compiled [`ExecPlan`](ranger_graph::ExecPlan)s, so every
//! experiment — paper default, design alternative, baseline arm — runs the same hot path.
//!
//! # Example
//!
//! ```no_run
//! use ranger_engine::Pipeline;
//! use ranger_inject::CampaignConfig;
//! use ranger_models::ModelKind;
//!
//! // The fig. 6 LeNet cell in four lines:
//! let report = Pipeline::for_model(ModelKind::LeNet)
//!     .seed(42)
//!     .campaign(CampaignConfig::default())
//!     .run()?;
//! for rate in &report.campaign.as_ref().unwrap().protected {
//!     println!("{}: {:.2}%", rate.category, rate.sdc_percent);
//! }
//! # Ok::<(), ranger_engine::PipelineError>(())
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod pipeline;

pub use data::{
    canonical_input, correct_classifier_inputs, correct_classifier_inputs_for,
    correct_steering_inputs, correct_steering_inputs_for, outputs_radians, profiling_samples,
    profiling_samples_for, JudgeSpec,
};
pub use pipeline::{
    protect_model, protect_model_for, run_model_campaign, BoundsSummary, CampaignComparison,
    OverheadSummary, Pipeline, PipelineError, PipelineOutcome, PipelineReport, ProtectedModel,
    RateSummary, DEFAULT_PROFILE_FRACTION,
};
