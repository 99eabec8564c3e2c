//! The shared, named-instrument registry and its JSON snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::instruments::{Counter, Gauge, Histogram};

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// A cheap-to-clone handle owning all named instruments.
///
/// Instrument resolution (`counter`/`gauge`/`histogram`) takes a short lock
/// on the name map and returns an `Arc` handle; hot paths resolve once at
/// configuration time and afterwards touch only atomics. Dropping every
/// clone of the registry drops the instruments with it.
///
/// A registry handle may carry a *scope prefix* ([`MetricsRegistry::scoped`]):
/// every instrument it resolves or reads gets the prefix prepended, while
/// the instruments still live in the one shared map (a root handle's
/// [`MetricsRegistry::to_json`] exports them all). This is how a sharded
/// deployment gives each shard its own `shard.{i}.server.*` pipeline
/// instruments without per-shard registries drifting apart.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
    /// Scope prefix prepended to every instrument name (empty at the root).
    prefix: Arc<str>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            inner: Arc::default(),
            prefix: Arc::from(""),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A view of the same registry with `prefix` prepended to every
    /// instrument name resolved or read through it. Scopes nest:
    /// `r.scoped("a.").scoped("b.")` resolves under `a.b.`.
    #[must_use]
    pub fn scoped(&self, prefix: &str) -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::clone(&self.inner),
            prefix: Arc::from(format!("{}{prefix}", self.prefix)),
        }
    }

    fn full_name<'a>(&self, name: &'a str) -> std::borrow::Cow<'a, str> {
        if self.prefix.is_empty() {
            std::borrow::Cow::Borrowed(name)
        } else {
            std::borrow::Cow::Owned(format!("{}{name}", self.prefix))
        }
    }

    /// Resolves (creating on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let name = self.full_name(name);
        let mut map = self.inner.counters.lock();
        if let Some(c) = map.get(name.as_ref()) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.into_owned(), Arc::clone(&c));
        c
    }

    /// Resolves (creating on first use) the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let name = self.full_name(name);
        let mut map = self.inner.gauges.lock();
        if let Some(g) = map.get(name.as_ref()) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.into_owned(), Arc::clone(&g));
        g
    }

    /// Resolves (creating on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let name = self.full_name(name);
        let mut map = self.inner.histograms.lock();
        if let Some(h) = map.get(name.as_ref()) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.into_owned(), Arc::clone(&h));
        h
    }

    /// The value of a counter, `None` if it was never resolved.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let name = self.full_name(name);
        self.inner
            .counters
            .lock()
            .get(name.as_ref())
            .map(|c| c.get())
    }

    /// The value of a gauge, `None` if it was never resolved.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        let name = self.full_name(name);
        self.inner.gauges.lock().get(name.as_ref()).map(|g| g.get())
    }

    /// A histogram's snapshot, `None` if it was never resolved.
    #[must_use]
    pub fn histogram_snapshot(&self, name: &str) -> Option<crate::HistogramSnapshot> {
        let name = self.full_name(name);
        self.inner
            .histograms
            .lock()
            .get(name.as_ref())
            .map(|h| h.snapshot())
    }

    /// Deterministic JSON snapshot of every instrument, sorted by name.
    ///
    /// Shape:
    /// `{"counters":{name:value,...},"gauges":{...},"histograms":{name:
    /// {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
    /// "p99":..,"p999":..,"buckets":[[upper,count],...]},...}}`
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        {
            let map = self.inner.counters.lock();
            for (i, (name, c)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(name), c.get());
            }
        }
        out.push_str("},\"gauges\":{");
        {
            let map = self.inner.gauges.lock();
            for (i, (name, g)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(name), g.get());
            }
        }
        out.push_str("},\"histograms\":{");
        {
            let map = self.inner.histograms.lock();
            for (i, (name, h)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let s = h.snapshot();
                let _ = write!(
                    out,
                    "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                    json_string(name),
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    s.mean(),
                    s.p50,
                    s.p90,
                    s.p99,
                    s.p999
                );
                for (j, (upper, count)) in s.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{upper},{count}]");
                }
                out.push_str("]}");
            }
        }
        out.push_str("}}");
        out
    }
}

/// Minimal JSON string encoding (instrument names are ASCII identifiers,
/// but escape defensively anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name_and_across_clones() {
        let r = MetricsRegistry::new();
        let other = r.clone();
        r.counter("hits").inc();
        other.counter("hits").add(2);
        assert_eq!(r.counter_value("hits"), Some(3));
        assert_eq!(r.counter_value("never"), None);
        r.gauge("live").set(9);
        assert_eq!(other.gauge_value("live"), Some(9));
    }

    #[test]
    fn json_snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.gauge("depth").set(-4);
        r.histogram("lat_ns").record(5);
        r.histogram("lat_ns").record(900);
        let json = r.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        let a = json.find("a.first").expect("a.first present");
        let b = json.find("b.second").expect("b.second present");
        assert!(a < b, "names must be sorted");
        assert!(json.contains("\"a.first\":1"));
        assert!(json.contains("\"depth\":-4"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"p999\":1023"));
        assert!(json.contains("\"buckets\":[[7,1],[1023,1]]"));
    }

    #[test]
    fn scoped_views_share_the_root_map() {
        let root = MetricsRegistry::new();
        let shard0 = root.scoped("shard.0.");
        let shard1 = root.scoped("shard.1.");
        shard0.counter("server.decisions").add(3);
        shard1.counter("server.decisions").inc();
        // Scoped reads see their own prefix; the root sees full names.
        assert_eq!(shard0.counter_value("server.decisions"), Some(3));
        assert_eq!(shard1.counter_value("server.decisions"), Some(1));
        assert_eq!(root.counter_value("shard.0.server.decisions"), Some(3));
        assert_eq!(root.counter_value("server.decisions"), None);
        // Scopes nest.
        let nested = shard0.scoped("inner.");
        nested.gauge("depth").set(2);
        assert_eq!(root.gauge_value("shard.0.inner.depth"), Some(2));
        // The root JSON export contains every scoped instrument.
        let json = root.to_json();
        assert!(json.contains("\"shard.0.server.decisions\":3"));
        assert!(json.contains("\"shard.1.server.decisions\":1"));
    }

    #[test]
    fn empty_registry_exports_empty_sections() {
        assert_eq!(
            MetricsRegistry::new().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn json_escapes_odd_names() {
        let r = MetricsRegistry::new();
        r.counter("weird\"name\\x").inc();
        let json = r.to_json();
        assert!(json.contains("\"weird\\\"name\\\\x\":1"));
    }
}
