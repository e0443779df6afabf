//! Helpers shared by the integration tests.

/// Fails unless `rendered` is byte for byte the text pinned in `path`
/// (`pinned`, its contents), naming the first line that differs.
pub fn assert_matches_text_pin(path: &str, pinned: &str, rendered: &str) {
    if rendered == pinned {
        return;
    }
    let mut pinned_lines = pinned.lines();
    let mut rendered_lines = rendered.lines();
    for line in 1.. {
        let (p, r) = (pinned_lines.next(), rendered_lines.next());
        if p != r {
            panic!(
                "output differs from {path} at line {line}:\n\
                 pinned:   {}\n\
                 rendered: {}",
                p.unwrap_or("<end of file>"),
                r.unwrap_or("<end of output>"),
            );
        }
        if p.is_none() {
            break;
        }
    }
    panic!("output differs from {path} only in line endings or the final newline");
}
