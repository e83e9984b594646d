"""C1 fixture (bad): a unit its own serial stage never calls."""


class Collector:
    def collect_flow_entity(self, snapshot, key):
        return key

    def collect_orphan_entity(self, snapshot, key):
        return key

    def run(self, snapshot):
        return [self.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
