//! Pipelines: elements wired by port routing.
//!
//! A pipeline is a directed graph of elements (paper §2.3). Each stage
//! routes every output port either to another stage, to a named sink
//! (delivery), or to a drop. Packet state is owned by exactly one
//! element at a time: the runner moves the packet object from stage to
//! stage, which *is* the ownership transfer of Table 1.

use crate::element::Element;
use dpir::PortId;

/// Where a stage's output port leads, as written. [`Pipeline::hop`]
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// To the next stage in declaration order; on the last stage, a
    /// delivery on sink 0.
    Next,
    /// To an explicit stage index; an index past the last stage is a
    /// delivery on sink 0. An index at or before this stage's is a
    /// cycle: the runner reports a packet still going round after 256
    /// stage entries per stage as stuck.
    To(usize),
    /// Out of the pipeline, delivered on a numbered sink.
    Sink(u8),
    /// Dropped.
    Drop,
}

/// Where a packet emitted on a port goes next: [`Route`] resolved
/// against the pipeline's length (see [`Pipeline::hop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    /// Into this stage (always an index of the pipeline).
    Stage(usize),
    /// Out of the pipeline, delivered on a numbered sink.
    Sink(u8),
    /// Dropped.
    Drop,
}

/// One pipeline stage: an element plus its port routing.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The element.
    pub element: Element,
    /// Routing per output port; ports without an entry go to
    /// [`Route::Drop`].
    pub routes: Vec<(PortId, Route)>,
}

impl Stage {
    /// A stage whose every port goes to the next stage (last stage's
    /// port 0 typically re-routed by [`Pipeline::push_sink`]).
    pub fn passthrough(element: Element) -> Self {
        let routes = element
            .output_ports()
            .iter()
            .map(|&p| (p, Route::Next))
            .collect();
        Stage { element, routes }
    }

    /// Overrides one port's route.
    pub fn route(mut self, port: PortId, r: Route) -> Self {
        if let Some(e) = self.routes.iter_mut().find(|(p, _)| *p == port) {
            e.1 = r;
        } else {
            self.routes.push((port, r));
        }
        self
    }

    /// Resolves a port.
    pub fn resolve(&self, port: PortId) -> Route {
        self.routes
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, r)| *r)
            .unwrap_or(Route::Drop)
    }
}

/// A named pipeline.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Display name.
    pub name: String,
    /// Stages in order.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new(name: &str) -> Self {
        Pipeline {
            name: name.to_string(),
            stages: Vec::new(),
        }
    }

    /// Appends a passthrough stage. Every port routes [`Route::Next`],
    /// so a pipeline that ends with `push` delivers on sink 0.
    pub fn push(mut self, element: Element) -> Self {
        self.stages.push(Stage::passthrough(element));
        self
    }

    /// Appends a stage whose port 0 exits to sink 0 (the tail of a
    /// linear pipeline).
    pub fn push_sink(mut self, element: Element) -> Self {
        let s = Stage::passthrough(element).route(0, Route::Sink(0));
        self.stages.push(s);
        self
    }

    /// Appends a custom stage.
    pub fn push_stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Where a packet emitted on `port` of stage `stage` goes: the one
    /// reading of a stage's routes, shared by the runner and every
    /// verifier walk. A [`Route::Next`] or [`Route::To`] past the last
    /// stage is [`Hop::Sink`]`(0)`.
    pub fn hop(&self, stage: usize, port: PortId) -> Hop {
        let to = match self.stages[stage].resolve(port) {
            Route::Next => stage + 1,
            Route::To(s) => s,
            Route::Sink(s) => return Hop::Sink(s),
            Route::Drop => return Hop::Drop,
        };
        if to < self.stages.len() {
            Hop::Stage(to)
        } else {
            Hop::Sink(0)
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpir::ProgramBuilder;

    fn pass_elem(name: &str) -> Element {
        let mut b = ProgramBuilder::new(name);
        b.emit(0);
        Element::straight(name, b.build().expect("valid"))
    }

    #[test]
    fn passthrough_routes_all_ports_next() {
        let mut b = ProgramBuilder::new("two_ports");
        let v = b.pkt_load(8, 0u64);
        let c = b.eq(8, v, 0u64);
        let (t, e) = b.fork(c);
        let _ = t;
        b.emit(0);
        b.switch_to(e);
        b.emit(1);
        let el = Element::straight("two_ports", b.build().expect("valid"));
        let s = Stage::passthrough(el);
        assert_eq!(s.resolve(0), Route::Next);
        assert_eq!(s.resolve(1), Route::Next);
        assert_eq!(s.resolve(9), Route::Drop);
    }

    #[test]
    fn route_override() {
        let s = Stage::passthrough(pass_elem("x")).route(0, Route::Sink(3));
        assert_eq!(s.resolve(0), Route::Sink(3));
    }

    #[test]
    fn pipeline_composition() {
        let p = Pipeline::new("p")
            .push(pass_elem("a"))
            .push(pass_elem("b"))
            .push_sink(pass_elem("c"));
        assert_eq!(p.len(), 3);
        assert_eq!(p.stages[2].resolve(0), Route::Sink(0));
    }

    #[test]
    fn hops_past_the_last_stage_deliver_on_sink_zero() {
        let p = Pipeline::new("p")
            .push(pass_elem("a"))
            .push_stage(Stage::passthrough(pass_elem("b")).route(0, Route::To(0)))
            .push(pass_elem("c"))
            .push_stage(Stage::passthrough(pass_elem("d")).route(0, Route::To(7)));
        assert_eq!(p.hop(0, 0), Hop::Stage(1));
        assert_eq!(p.hop(1, 0), Hop::Stage(0));
        assert_eq!(p.hop(2, 0), Hop::Stage(3));
        assert_eq!(p.hop(3, 0), Hop::Sink(0));
        assert_eq!(p.hop(0, 5), Hop::Drop);
        let open = Pipeline::new("open").push(pass_elem("a"));
        assert_eq!(open.hop(0, 0), Hop::Sink(0));
        let sunk = Pipeline::new("sunk").push_sink(pass_elem("a"));
        assert_eq!(sunk.hop(0, 0), Hop::Sink(0));
    }
}
