//! Reading counters out of the service's Prometheus exposition.

/// Sum of every sample of the series `name` (all label sets).
pub fn series_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// Sum of the samples of `name` whose label set contains `label`
/// (e.g. `result="hit"`).
pub fn labelled_sum(body: &str, name: &str, label: &str) -> f64 {
    body.lines()
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with('{') && l.contains(label))
        .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
        .sum()
}

/// `after - before` for the series `name`.
pub fn delta(before: &str, after: &str, name: &str) -> f64 {
    series_sum(after, name) - series_sum(before, name)
}
