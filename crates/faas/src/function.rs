//! Function specs, invocations, and results.

use gfaas_sim::time::{SimDuration, SimTime};

/// How a function's body executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Plain CPU function: the Watchdog runs it inside its container.
    Cpu,
    /// GPU-enabled inference function: the Gateway has replaced the
    /// framework's `load`/`predict` interface with redirection to the GPU
    /// Manager (the paper's transparent Dockerfile rewrite, §III-A).
    GpuRedirect,
}

/// A registered function (what the user deploys through the Gateway).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSpec {
    /// Unique function name (the REST route).
    pub name: String,
    /// Container image reference (informational in the simulation).
    pub image: String,
    /// The user's Dockerfile GPU-enable flag.
    pub gpu_enabled: bool,
    /// For inference functions: the model this function serves.
    pub model_name: Option<String>,
    /// Default inference batch size.
    pub batch_size: usize,
}

impl FunctionSpec {
    /// A CPU function.
    pub fn cpu(name: impl Into<String>, image: impl Into<String>) -> Self {
        FunctionSpec {
            name: name.into(),
            image: image.into(),
            gpu_enabled: false,
            model_name: None,
            batch_size: 1,
        }
    }

    /// A GPU inference function serving `model_name`.
    pub fn gpu_inference(
        name: impl Into<String>,
        model_name: impl Into<String>,
        batch_size: usize,
    ) -> Self {
        FunctionSpec {
            name: name.into(),
            image: "gfaas/inference:latest".to_string(),
            gpu_enabled: true,
            model_name: Some(model_name.into()),
            batch_size,
        }
    }

    /// The runtime the Gateway assigns at registration.
    pub fn runtime(&self) -> Runtime {
        if self.gpu_enabled {
            Runtime::GpuRedirect
        } else {
            Runtime::Cpu
        }
    }
}

/// One function invocation as it flows Gateway → Scheduler/Watchdog.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Monotone invocation id assigned by the Gateway.
    pub id: u64,
    /// The invoked function's name.
    pub function: String,
    /// Request payload (input images, serialized).
    pub payload: Vec<u8>,
    /// Arrival time at the Gateway.
    pub arrived_at: SimTime,
    /// Batch size for inference functions.
    pub batch_size: usize,
}

/// The outcome returned to the end user.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationResult {
    /// The invocation this answers.
    pub id: u64,
    /// Response payload (e.g. predicted labels, serialized).
    pub output: Vec<u8>,
    /// End-to-end latency (queueing + load-if-miss + inference).
    pub latency: SimDuration,
    /// Whether the model was already cached on the serving GPU.
    pub cache_hit: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_flag_selects_runtime() {
        let f = FunctionSpec::gpu_inference("classify", "resnet50", 32);
        assert_eq!(f.runtime(), Runtime::GpuRedirect);
        assert_eq!(f.model_name.as_deref(), Some("resnet50"));
        assert_eq!(f.batch_size, 32);
        let g = FunctionSpec::cpu("hello", "alpine");
        assert_eq!(g.runtime(), Runtime::Cpu);
        assert!(g.model_name.is_none());
    }
}
