//! The Gateway: function CRUD and invocation routing.
//!
//! The Gateway is the platform's public route (Fig 1). Registration stores
//! the spec in the Datastore under `/functions/<name>`; at that moment the
//! Gateway inspects the Dockerfile's GPU flag and — for GPU functions —
//! replaces the ML framework's load/predict interface so invocations are
//! redirected to the GPU scheduler instead of executing in the container
//! (the paper's transparent rewrite, §III-A). CPU functions run through the
//! local [`crate::watchdog::Watchdog`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gfaas_sim::time::SimTime;

use crate::datastore::Datastore;
use crate::function::{FunctionSpec, Invocation, InvocationResult, Runtime};

/// Routes GPU invocations to the GPU scheduler; tests use stubs.
pub trait Dispatcher: Send {
    /// Accepts one invocation for asynchronous GPU execution; the result is
    /// delivered through the dispatcher's own completion path.
    fn dispatch(&mut self, invocation: Invocation);
}

/// Runs CPU function bodies (the Watchdog's execution hook).
pub trait CpuRunner: Send {
    /// Executes the function synchronously, returning its output payload.
    fn run(&mut self, invocation: &Invocation) -> Vec<u8>;
}

/// Errors surfaced to the end user by the Gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// Registration with a name that is already taken.
    AlreadyRegistered(String),
    /// Invocation/update/delete of an unknown function.
    NotFound(String),
    /// A GPU function was invoked but no dispatcher is attached.
    NoDispatcher,
    /// Registration data failed validation.
    Invalid(&'static str),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::AlreadyRegistered(n) => write!(f, "function {n} already registered"),
            GatewayError::NotFound(n) => write!(f, "function {n} not found"),
            GatewayError::NoDispatcher => write!(f, "no GPU dispatcher attached"),
            GatewayError::Invalid(why) => write!(f, "invalid function spec: {why}"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// Key prefix for registered functions in the Datastore.
pub const FUNCTIONS_PREFIX: &str = "/functions/";

/// The platform gateway.
pub struct Gateway {
    datastore: Arc<Datastore>,
    dispatcher: Option<Box<dyn Dispatcher>>,
    registry: Mutex<Vec<FunctionSpec>>,
    next_invocation: AtomicU64,
}

impl Gateway {
    /// A gateway backed by the given datastore, with no GPU dispatcher yet.
    pub fn new(datastore: Arc<Datastore>) -> Self {
        Gateway {
            datastore,
            dispatcher: None,
            registry: Mutex::new(Vec::new()),
            next_invocation: AtomicU64::new(0),
        }
    }

    /// Locks the function registry. No registry edit panics partway, so
    /// even a poisoned lock guards a consistent list.
    fn registry(&self) -> MutexGuard<'_, Vec<FunctionSpec>> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches the GPU dispatcher (the scheduler frontend).
    pub fn set_dispatcher(&mut self, d: Box<dyn Dispatcher>) {
        self.dispatcher = Some(d);
    }

    /// Registers a function (the `create` of CRUD). Stores the spec and —
    /// for GPU functions — marks the interface replacement by recording the
    /// assigned runtime next to the spec.
    pub fn register(&self, spec: FunctionSpec) -> Result<Runtime, GatewayError> {
        if spec.name.is_empty() {
            return Err(GatewayError::Invalid("empty name"));
        }
        if spec.gpu_enabled && spec.model_name.is_none() {
            return Err(GatewayError::Invalid("GPU function without a model"));
        }
        if spec.batch_size == 0 {
            return Err(GatewayError::Invalid("zero batch size"));
        }
        let mut reg = self.registry();
        if reg.iter().any(|f| f.name == spec.name) {
            return Err(GatewayError::AlreadyRegistered(spec.name));
        }
        let runtime = spec.runtime();
        let key = format!("{FUNCTIONS_PREFIX}{}", spec.name);
        let record = format!(
            "image={};gpu={};model={};batch={};runtime={:?}",
            spec.image,
            spec.gpu_enabled,
            spec.model_name.as_deref().unwrap_or("-"),
            spec.batch_size,
            runtime
        );
        self.datastore.put(key, record);
        reg.push(spec);
        Ok(runtime)
    }

    /// Reads a registered spec (the `read` of CRUD).
    pub fn get(&self, name: &str) -> Option<FunctionSpec> {
        self.registry().iter().find(|f| f.name == name).cloned()
    }

    /// Replaces a registered spec (the `update` of CRUD).
    pub fn update(&self, spec: FunctionSpec) -> Result<Runtime, GatewayError> {
        let mut reg = self.registry();
        let slot = reg
            .iter_mut()
            .find(|f| f.name == spec.name)
            .ok_or_else(|| GatewayError::NotFound(spec.name.clone()))?;
        let runtime = spec.runtime();
        *slot = spec;
        Ok(runtime)
    }

    /// Removes a function (the `delete` of CRUD).
    pub fn deregister(&self, name: &str) -> Result<(), GatewayError> {
        let mut reg = self.registry();
        let before = reg.len();
        reg.retain(|f| f.name != name);
        if reg.len() == before {
            return Err(GatewayError::NotFound(name.to_string()));
        }
        self.datastore.delete(format!("{FUNCTIONS_PREFIX}{name}"));
        Ok(())
    }

    /// All registered functions.
    pub fn list(&self) -> Vec<FunctionSpec> {
        self.registry().clone()
    }

    /// Builds an invocation record for a function call arriving at `now`.
    pub fn make_invocation(
        &self,
        name: &str,
        payload: Vec<u8>,
        now: SimTime,
    ) -> Result<Invocation, GatewayError> {
        let spec = self
            .get(name)
            .ok_or_else(|| GatewayError::NotFound(name.to_string()))?;
        Ok(Invocation {
            id: self.next_invocation.fetch_add(1, Ordering::Relaxed),
            function: spec.name,
            payload,
            arrived_at: now,
            batch_size: spec.batch_size,
        })
    }

    /// Invokes a function. GPU functions are forwarded to the dispatcher
    /// (asynchronous completion); CPU functions run synchronously through
    /// `cpu_runner` and return a result immediately.
    pub fn invoke(
        &mut self,
        name: &str,
        payload: Vec<u8>,
        now: SimTime,
        cpu_runner: &mut dyn CpuRunner,
    ) -> Result<Option<InvocationResult>, GatewayError> {
        let spec = self
            .get(name)
            .ok_or_else(|| GatewayError::NotFound(name.to_string()))?;
        let invocation = self.make_invocation(name, payload, now)?;
        match spec.runtime() {
            Runtime::GpuRedirect => {
                let d = self.dispatcher.as_mut().ok_or(GatewayError::NoDispatcher)?;
                d.dispatch(invocation);
                Ok(None)
            }
            Runtime::Cpu => {
                let output = cpu_runner.run(&invocation);
                Ok(Some(InvocationResult {
                    id: invocation.id,
                    output,
                    latency: gfaas_sim::time::SimDuration::ZERO,
                    cache_hit: None,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl CpuRunner for Echo {
        fn run(&mut self, inv: &Invocation) -> Vec<u8> {
            inv.payload.clone()
        }
    }

    struct Collect(Arc<Mutex<Vec<Invocation>>>);
    impl Dispatcher for Collect {
        fn dispatch(&mut self, invocation: Invocation) {
            self.0.lock().unwrap().push(invocation);
        }
    }

    fn gw() -> Gateway {
        Gateway::new(Arc::new(Datastore::new()))
    }

    #[test]
    fn register_records_spec_and_runtime() {
        let g = gw();
        let rt = g
            .register(FunctionSpec::gpu_inference("cls", "resnet50", 32))
            .unwrap();
        assert_eq!(rt, Runtime::GpuRedirect);
        let kv = g.datastore.get("/functions/cls").unwrap();
        let s = String::from_utf8(kv.value.to_vec()).unwrap();
        assert!(s.contains("gpu=true"));
        assert!(s.contains("model=resnet50"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let g = gw();
        g.register(FunctionSpec::cpu("f", "img")).unwrap();
        assert_eq!(
            g.register(FunctionSpec::cpu("f", "img2")),
            Err(GatewayError::AlreadyRegistered("f".into()))
        );
    }

    #[test]
    fn validation_rules() {
        let g = gw();
        assert!(matches!(
            g.register(FunctionSpec::cpu("", "img")),
            Err(GatewayError::Invalid(_))
        ));
        let mut bad = FunctionSpec::cpu("x", "img");
        bad.gpu_enabled = true; // GPU but no model
        assert!(matches!(g.register(bad), Err(GatewayError::Invalid(_))));
        let mut zero = FunctionSpec::gpu_inference("y", "m", 1);
        zero.batch_size = 0;
        assert!(matches!(g.register(zero), Err(GatewayError::Invalid(_))));
    }

    #[test]
    fn crud_round_trip() {
        let g = gw();
        g.register(FunctionSpec::cpu("f", "v1")).unwrap();
        assert_eq!(g.get("f").unwrap().image, "v1");
        let mut updated = FunctionSpec::cpu("f", "v2");
        updated.batch_size = 4;
        g.update(updated).unwrap();
        assert_eq!(g.get("f").unwrap().image, "v2");
        assert_eq!(g.list().len(), 1);
        g.deregister("f").unwrap();
        assert!(g.get("f").is_none());
        assert_eq!(g.deregister("f"), Err(GatewayError::NotFound("f".into())));
        assert!(g.datastore.get("/functions/f").is_none());
    }

    #[test]
    fn cpu_invocation_runs_synchronously() {
        let mut g = gw();
        g.register(FunctionSpec::cpu("echo", "img")).unwrap();
        let out = g
            .invoke("echo", b"hi".to_vec(), SimTime::ZERO, &mut Echo)
            .unwrap()
            .unwrap();
        assert_eq!(out.output, b"hi".to_vec());
    }

    #[test]
    fn gpu_invocation_routes_to_dispatcher() {
        let mut g = gw();
        g.register(FunctionSpec::gpu_inference("cls", "vgg16", 32))
            .unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        g.set_dispatcher(Box::new(Collect(Arc::clone(&seen))));
        let res = g
            .invoke("cls", b"img".to_vec(), SimTime::from_secs(3), &mut Echo)
            .unwrap();
        assert!(res.is_none(), "GPU path completes asynchronously");
        let got = seen.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].function, "cls");
        assert_eq!(got[0].batch_size, 32);
        assert_eq!(got[0].arrived_at, SimTime::from_secs(3));
    }

    #[test]
    fn gpu_invocation_without_dispatcher_errors() {
        let mut g = gw();
        g.register(FunctionSpec::gpu_inference("cls", "vgg16", 32))
            .unwrap();
        assert_eq!(
            g.invoke("cls", Vec::new(), SimTime::ZERO, &mut Echo)
                .unwrap_err(),
            GatewayError::NoDispatcher
        );
    }

    #[test]
    fn invocation_ids_are_monotone() {
        let g = gw();
        g.register(FunctionSpec::cpu("f", "img")).unwrap();
        let a = g.make_invocation("f", Vec::new(), SimTime::ZERO).unwrap();
        let b = g.make_invocation("f", Vec::new(), SimTime::ZERO).unwrap();
        assert!(b.id > a.id);
    }

    #[test]
    fn unknown_function_not_found() {
        let mut g = gw();
        assert_eq!(
            g.invoke("ghost", Vec::new(), SimTime::ZERO, &mut Echo)
                .unwrap_err(),
            GatewayError::NotFound("ghost".into())
        );
    }
}
