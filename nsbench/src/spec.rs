//! `BENCHMARK.json`: the metric names, directions and bounds this
//! binary is held to. Read at run time only by `--repeat` (to flag
//! spreads beyond a bound) and by the unit tests (so the names printed
//! and the names promised cannot drift apart).

use crate::report::Json;

pub struct MetricSpec {
    pub name: String,
    #[cfg(test)]
    pub unit: String,
    /// Share of the median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    #[cfg(test)]
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    #[cfg(test)]
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        #[cfg(test)]
                        unit: text_of(m, "unit")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            #[cfg(test)]
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            #[cfg(test)]
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}
