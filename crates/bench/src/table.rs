//! One column list per report table: a column is declared once — its text
//! heading and width, its CSV field name, its value — and [`text_table`]
//! and [`csv`] render the two forms from that list.

use std::fmt::Display;

/// Alignment and width of a column in the text table.
#[derive(Clone, Copy)]
pub enum Align {
    /// Left-aligned in this many characters.
    L(usize),
    /// Right-aligned in this many characters.
    R(usize),
}

type Value<T> = Box<dyn Fn(&T) -> String>;

fn boxed<T, V: Display>(value: impl Fn(&T) -> V + 'static) -> Value<T> {
    Box::new(move |row| value(row).to_string())
}

/// One column over rows of type `T`.
pub struct Col<T> {
    /// Heading (one line per `\n`-separated part) and placement in the
    /// text table; `None` for a column only the CSV carries.
    text: Option<(&'static str, Align)>,
    /// Field name in the CSV; `None` for a column only the text shows.
    csv: Option<&'static str>,
    value: Value<T>,
    /// The text table's own form of the value, where it differs.
    text_value: Option<Value<T>>,
}

impl<T> Col<T> {
    /// A column of both renderings.
    pub fn new<V: Display>(
        heading: &'static str,
        align: Align,
        csv: &'static str,
        value: impl Fn(&T) -> V + 'static,
    ) -> Self {
        Col { text: Some((heading, align)), csv: Some(csv), value: boxed(value), text_value: None }
    }

    /// A column only the text table shows.
    pub fn text_only<V: Display>(
        heading: &'static str,
        align: Align,
        value: impl Fn(&T) -> V + 'static,
    ) -> Self {
        Col { text: Some((heading, align)), csv: None, value: boxed(value), text_value: None }
    }

    /// A column only the CSV carries.
    pub fn csv_only<V: Display>(csv: &'static str, value: impl Fn(&T) -> V + 'static) -> Self {
        Col { text: None, csv: Some(csv), value: boxed(value), text_value: None }
    }

    /// Show the value in the text table in a form of its own (`on` for
    /// `true`, a fixed-precision float, a share of a total).
    pub fn text_as<V: Display>(mut self, value: impl Fn(&T) -> V + 'static) -> Self {
        self.text_value = Some(boxed(value));
        self
    }
}

/// The text table over those of `cols` that have a heading: the heading
/// line(s), then one line per row, columns separated by one space.
pub fn text_table<'a, T: 'a>(
    cols: impl IntoIterator<Item = &'a Col<T>>,
    rows: impl IntoIterator<Item = &'a T>,
) -> String {
    let cols: Vec<_> = cols
        .into_iter()
        .filter_map(|c| c.text.map(|(heading, align)| (c, heading, align)))
        .collect();
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&cols)
            .map(|(cell, &(_, _, align))| match align {
                Align::L(w) => format!("{cell:<w$}"),
                Align::R(w) => format!("{cell:>w$}"),
            })
            .collect();
        out += &padded.join(" ");
        out.push('\n');
    };
    let heading_lines = cols.iter().map(|(_, h, _)| h.lines().count()).max().unwrap_or(0);
    for i in 0..heading_lines {
        line(cols.iter().map(|(_, h, _)| h.lines().nth(i).unwrap_or("").to_string()).collect());
    }
    for row in rows {
        line(
            cols.iter().map(|(c, _, _)| (c.text_value.as_ref().unwrap_or(&c.value))(row)).collect(),
        );
    }
    out
}

/// The CSV file over those of `cols` that have a field name: the header
/// line, then one line per row.
pub fn csv<T>(cols: &[Col<T>], rows: &[T]) -> String {
    let cols: Vec<_> = cols.iter().filter_map(|c| c.csv.map(|name| (name, &c.value))).collect();
    let mut out = cols.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(",");
    out.push('\n');
    for row in rows {
        out += &cols.iter().map(|(_, value)| value(row)).collect::<Vec<_>>().join(",");
        out.push('\n');
    }
    out
}
