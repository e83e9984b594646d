"""C1 fixture (good): units wired into both execution paths."""


class Collector:
    def collect_flow_entity(self, snapshot, key):
        return key

    def harden_span_entity(self, snapshot, key):
        return key

    def run(self, snapshot):
        out = [self.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
        out += [self.harden_span_entity(snapshot, k) for k in sorted(snapshot)]
        return out
