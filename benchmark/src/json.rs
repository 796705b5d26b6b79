//! The one record shape processes of the benchmark exchange and the
//! result files use: an object of numbers and of arrays of numbers.

use std::collections::BTreeMap;

use dqep::executor::{parse_json, JsonValue};

/// Named numbers plus named number arrays. Counts travel as `f64`, which
/// is exact below 2^53.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub nums: BTreeMap<String, f64>,
    pub arrays: BTreeMap<String, Vec<f64>>,
}

impl Record {
    pub fn set(&mut self, key: &str, value: f64) {
        self.nums.insert(key.to_string(), value);
    }

    /// The number stored under `key`; a missing key is a bug in the
    /// benchmark, not in its input.
    pub fn num(&self, key: &str) -> f64 {
        *self
            .nums
            .get(key)
            .unwrap_or_else(|| panic!("record has no number `{key}`"))
    }

    pub fn array(&self, key: &str) -> &[f64] {
        self.arrays.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn to_json(&self) -> String {
        let nums = self
            .nums
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", number(*v)));
        let arrays = self.arrays.iter().map(|(k, vs)| {
            let items: Vec<String> = vs.iter().map(|v| number(*v)).collect();
            format!("\"{k}\":[{}]", items.join(","))
        });
        format!("{{{}}}", nums.chain(arrays).collect::<Vec<_>>().join(","))
    }

    pub fn from_json(text: &str) -> Result<Record, String> {
        let JsonValue::Obj(members) = parse_json(text)? else {
            return Err("record is not an object".into());
        };
        let mut record = Record::default();
        for (key, value) in members {
            match value {
                JsonValue::Num(n) => {
                    record.nums.insert(key, n);
                }
                JsonValue::Arr(items) => {
                    let nums: Option<Vec<f64>> = items.iter().map(JsonValue::as_num).collect();
                    record.arrays.insert(
                        key.clone(),
                        nums.ok_or(format!("`{key}` holds a non-number"))?,
                    );
                }
                _ => return Err(format!("`{key}` is neither a number nor an array")),
            }
        }
        Ok(record)
    }
}

/// A JSON number with all its digits; JSON has no NaN or infinity.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let mut r = Record::default();
        r.set("setup_s", 0.123456789012);
        r.set("count", 9_007_199_254_740_991.0);
        r.arrays.insert("lat_ns".into(), vec![1.0, 2.5, 3e9]);
        assert_eq!(Record::from_json(&r.to_json()).unwrap(), r);
    }
}
